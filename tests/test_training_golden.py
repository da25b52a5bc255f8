"""Golden hashes of a small training run.

One seeded ``qw-mtl`` run (depth 3, with quantum descriptors) over a
benchmark-generated table pins sha256 of its per-epoch history (as JSON, whose
floats round-trip exactly) and of the trained parameter vector's bytes. Any
change to the arithmetic of the forward pass, the backward pass, the loss,
the weighting or Adam, down to the last bit or the order of a sum, changes
a hash; the table depends on molgen's fragment table.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from mtlmolnet import data, model
from mtlmolnet.config import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import molgen  # noqa: E402


def run(tmp_path):
    rng = np.random.default_rng(11)
    mols = molgen.molecules(rng, 90, 3, 16)
    names = molgen.write_dataset(tmp_path / "d.csv", mols, [90, 60, 30],
                                 ["nitrogen", "aromatic", "oxygen"], rng, noise=0.1)
    molgen.write_tasks(tmp_path / "tasks.json", names)
    molgen.write_qc(tmp_path / "qc.csv", molgen.qc_values(rng, mols))
    table = data.load_dataset(tmp_path / "d.csv", data.load_task_specs(tmp_path / "tasks.json"))
    data.prepare_table(table, qc_path=tmp_path / "qc.csv")
    cfg = TrainConfig(variant="qw-mtl", hidden=16, depth=3, ffn_hidden=8, epochs=3,
                      batch_size=16, lr=3e-3, seed=5)
    return model.train(table, cfg)


def test_training_run_golden(tmp_path):
    result = run(tmp_path)
    assert len(result.history) == 9
    # json writes a float (np.float64 is one) in its shortest round-trip form
    history_hash = hashlib.sha256(json.dumps(result.history).encode()).hexdigest()
    params_hash = hashlib.sha256(result.params.store.flat.tobytes()).hexdigest()
    assert history_hash == "ae74c32fa08fe7ca0491e66994fd540764548d9e9d23b1da94c908c41c7eba8b"
    assert params_hash == "8ef26a2ae774443e8d91a2d8949954fdc78c5c3e2c37f5d7bec8f3e11e937773"
