"""Golden digests of every file and every stdout the CLI writes.

``train`` (two seeds), ``predict``, ``eval``, ``analyze`` and ``ablate`` run
in-process on one fixed ``tests/synth`` dataset at hidden 8, a width whose
bits do not depend on the BLAS thread count. The sha256 of each file they
write (checkpoints, histories, manifest, reports, predictions, the eval
table, the exponent table, embeddings and the PCA) and of each command's
stdout is pinned, so a change to how any table is written, down to one
byte of one float, fails here.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import synth

from mtlmolnet import cli

FILES = {
    "ablate/ablation.csv": "20104321ef3e8f74497a8e48277ea5e58c68a3698d5cd84b1a51655a918b5c08",
    "ablate/multi-rdkit/history_seed0.csv": "0018133ba670619bfee9e5a5ecc905f955a7e02503e893bec7434d7bca68219d",
    "ablate/multi-rdkit/model_seed0.ckpt": "d3b66545186f3f3adfcd0cfa9101f97a13516d25595ccb66c5fa7e9f7fbe90f1",
    "ablate/multi-rdkit-beta/history_seed0.csv": "fd3ab41fc7c75597492220a59f8738a090fad12edec304474b0dd3ad6773f97d",
    "ablate/multi-rdkit-beta/model_seed0.ckpt": "ab15aacf11f187f876692f5302577fa5e99a7ad3ecc69ee860c420cd5d2835e0",
    "ablate/multi-rdkit-qc/history_seed0.csv": "944ad1ed1642079947364f8f7dcfc66f791e223a50b5b803526b8daca7f7b535",
    "ablate/multi-rdkit-qc/model_seed0.ckpt": "d76fef4e83a68ea55726353104e2ca68598d506142aedb2d751f39f04fc4a577",
    "ablate/qw-mtl/history_seed0.csv": "2fd8caa11e7f6f423c2ddabd432ff1732ba45bf06984dc73f42ae94848b50a1e",
    "ablate/qw-mtl/model_seed0.ckpt": "d0df48fa96e765f03db186c8ce91a24bb0e1b2691b2b697d83877ca41126223b",
    "analyze/beta_by_scale.csv": "2c7e3da87d4af7895097ae7ee9a28f9fa243a2965897b5eb4edf74b0b3d5ff83",
    "analyze/embeddings.csv": "9b3691adf4325b49fd834d0474e786aa8a5b1236dcc0884d36932b7a590a1f67",
    "analyze/pca.csv": "cfaf5dc2acfa21c4132eeb0f5a5ebf52975a32e4d41ff9af517fb0e9a1561031",
    "eval.csv": "11adbfadb33413c614eaca4c0ef8241da6eccf9ab1e017cbda99251b535737fc",
    "predict.csv": "1dd001dabf784bc40e0d2783601c003c4e75b8c54e32c82725732ddfb74a7771",
    "train/history_seed0.csv": "2fd8caa11e7f6f423c2ddabd432ff1732ba45bf06984dc73f42ae94848b50a1e",
    "train/history_seed1.csv": "dea5d2cbf17599941fe8244452e5804f186e22422c5e96ca5a8b1402ffa3c5f3",
    "train/manifest.json": "ea70a4bac641602652fef0ff86a56aeaf5f6b457111df4311f92c57bd06e117d",
    "train/model_seed0.ckpt": "d0df48fa96e765f03db186c8ce91a24bb0e1b2691b2b697d83877ca41126223b",
    "train/model_seed1.ckpt": "76fda1753841fb49afcdea9d081cabc1054fa17a8dc7cf5503277584fd58524b",
    "train/val_report.csv": "9bf3c1644273ecb0be565d3a5397f2c9046a82ce56c02f3bac40b2cd3334788e",
}

STDOUT = {
    "train": "b55404c14f1cecef92184a76176223bd9b3a884e8f2706ae05cf3aa7133b431f",
    "predict": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict_stdout": "1dd001dabf784bc40e0d2783601c003c4e75b8c54e32c82725732ddfb74a7771",
    "eval": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "analyze": "ca0a02cbc6d28e675efaeebd3c161af3d8b62eb60e9d485abd826258ca60bbd0",
    "ablate": "20104321ef3e8f74497a8e48277ea5e58c68a3698d5cd84b1a51655a918b5c08",
}


def sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """(sha256 of each written file by its path under the output directory,
    sha256 of each command's stdout by command)."""
    d = tmp_path_factory.mktemp("golden")
    inputs, out = d / "in", d / "out"
    inputs.mkdir()
    names = synth.write_multitask_csv(inputs / "data.csv", [40, 24], seed=3, test_every=8)
    synth.write_tasks_file(inputs / "tasks.json", names)
    smiles = [line.split(",")[0] for line in (inputs / "data.csv").read_text().splitlines()[1:]]
    synth.write_qc_csv(inputs / "qc.csv", smiles, seed=4)
    (inputs / "mols.smi").write_text("smiles\n" + "\n".join(smiles[:10]) + "\n")

    data = f"--data {inputs}/data.csv --tasks {inputs}/tasks.json --qc {inputs}/qc.csv"
    training = "--hidden 8 --ffn-hidden 8 --depth 2 --batch-size 16 --epochs 2"
    ckpt = f"--checkpoint {out}/train/model_seed0.ckpt"
    commands = {
        "train": f"train {data} {training} --seeds 0,1 --out {out}/train",
        "predict": f"predict {ckpt} --data {inputs}/mols.smi --qc {inputs}/qc.csv "
                   f"--out {out}/predict.csv",
        "predict_stdout": f"predict {ckpt} --data {inputs}/mols.smi --qc {inputs}/qc.csv",
        "eval": f"eval {ckpt} --data {inputs}/data.csv --qc {inputs}/qc.csv "
                f"--out {out}/eval.csv",
        "analyze": f"analyze --history {out}/train/history_seed0.csv {data} {ckpt} "
                   f"--out {out}/analyze",
        "ablate": f"ablate {data} {training} --seeds 0 --out {out}/ablate",
    }
    stdout = {}
    for name, command in commands.items():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            assert cli.main(command.split()) == 0, name
        stdout[name] = sha(captured.getvalue().encode())
    files = {path.relative_to(out).as_posix(): sha(path.read_bytes())
             for path in sorted(out.rglob("*")) if path.is_file()}
    return files, stdout


def test_every_written_file_keeps_its_bytes(golden):
    assert golden[0] == FILES


def test_every_stdout_keeps_its_bytes(golden):
    assert golden[1] == STDOUT


def test_predictions_to_stdout_are_the_file_bytes(golden):
    assert golden[1]["predict_stdout"] == golden[0]["predict.csv"]
