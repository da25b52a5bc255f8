"""Tests of the benchmark's generator, tracer and reference forward pass.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import itertools

import numpy as np

import molgen
import reference
import tracer as tracer_mod
from mtlmolnet import autodiff as ad
from mtlmolnet import checkpoint, encoder, features, model, smiles
from mtlmolnet.config import TrainConfig
from mtlmolnet.data import TaskSpec


def rng(seed=0):
    return np.random.default_rng(seed)


def test_generator_is_seeded_and_exact_in_size():
    a = molgen.molecules(rng(3), 60, 10, 40)
    b = molgen.molecules(rng(3), 60, 10, 40)
    assert [m.smiles for m in a] == [m.smiles for m in b]
    for m in a:
        assert 10 <= m.n_atoms <= 40
        assert smiles.parse_smiles(m.smiles).n_atoms == m.n_atoms


def test_generator_covers_the_stated_structures():
    tags = set()
    for m in molgen.molecules(rng(1), 200, 20, 28):
        tags |= set(m.tags)
    assert {"ring", "aromatic", "heteroaromatic", "branch", "halogen", "charged"} <= tags


def test_declared_molecule_carries_one_substituted_aromatic_nitrogen():
    for seed in range(20):
        m = molgen.molecule(rng(seed), 10, 40, declared=True)
        assert 10 <= m.n_atoms <= 40
        assert m.smiles.count("n1ccnc1") == 1
        assert m.tags["aromatic_n_substituted"] == 1


def test_labels_follow_rules_and_noise(tmp_path):
    mols = molgen.molecules(rng(2), 200, 3, 8)
    path = tmp_path / "d.csv"
    molgen.write_dataset(path, mols, [200, 50], ["nitrogen", "nitrogen"], rng(2))
    rows = path.read_text().splitlines()[1:]
    for mol, row in zip(mols, rows):
        cells = row.split(",")
        assert cells[0] == mol.smiles
        assert cells[1] == str(mol.rule("nitrogen"))
    assert sum(row.split(",")[3] != "" for row in rows) == 50


def fake_clock(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(tracer_mod, "_perf", lambda: float(next(ticks)))


def test_self_times_add_up_to_the_root_span(monkeypatch):
    fake_clock(monkeypatch)
    original = ad.matmul
    t = tracer_mod.Tracer()
    t.install()
    start = tracer_mod._perf()
    t.enter(t.ROOT)
    try:
        x = ad.Tensor(np.ones((4, 3)), requires_grad=True)
        loss = ad.tensor_sum(ad.relu(ad.matmul(x, ad.Tensor(np.ones((3, 2))))))
        loss.backward()
    finally:
        t.exit()
        end = tracer_mod._perf()
        t.uninstall()
    assert ad.matmul is original
    # the root span runs from the tick after `start` to the tick before
    # `end`, and each tick in between belongs to exactly one span
    assert sum(t.self_s.values()) == (end - 1) - (start + 1)
    assert t.calls["bench.matmul.fwd"] == 1
    assert t.calls["bench.matmul.bwd"] == 1
    # 2*4*3*2 forward, the same again for the one input that needs a gradient
    assert t.counts["bench.matmul.flops"] == 96


def test_ops_are_attributed_to_the_layer_that_created_them():
    g = smiles.featurize(smiles.parse_smiles("c1ccccc1CC(=O)O"))
    params = encoder.init_encoder_params(smiles.ATOM_FEATURE_DIM, smiles.BOND_FEATURE_DIM,
                                         8, 3, rng())
    t = tracer_mod.Tracer()
    t.install()
    try:
        encoder.encode_batch([g, g], params)
    finally:
        t.uninstall()
    assert t.value("encoder.encode_batch.calls") == 1
    assert t.value("encoder.matmul.calls") == 4  # input, 2 messages, readout
    assert t.value("encoder.atoms") == 2 * g.n_atoms
    assert t.value("encoder.edges") == 4 * g.n_bonds
    assert t.value("kernels.scatter_add_rows.calls") == 4
    assert not any(name.startswith("model.") for name in t.self_s)


def test_callers_that_imported_a_name_see_the_wrapper():
    from mtlmolnet import cli

    original = cli.load_checkpoint
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert cli.load_checkpoint is checkpoint.load_checkpoint
        assert cli.load_checkpoint is not original
    finally:
        t.uninstall()
    assert cli.load_checkpoint is original


def test_missing_hook_targets_are_reported_absent():
    t = tracer_mod.Tracer()
    t.install(hooks=[("_kernels", "no_such_kernel", "fn", None),
                     ("no_such_module", "f", "fn", None),
                     ("autodiff", "no_such_op", "op", None)])
    t.uninstall()
    assert t.absent == ["kernels.no_such_kernel", "no_such_module.f", "*.no_such_op"]
    assert t.is_absent("kernels.no_such_kernel.rows")
    assert t.is_absent("encoder.no_such_op.fwd_s")
    assert not t.is_absent("encoder.matmul.fwd_s")
    assert t.value("kernels.no_such_kernel.self_s") == 0


def test_reference_forward_matches_predict_blocks(tmp_path):
    cfg = TrainConfig(variant="qw-mtl", hidden=12, depth=3, ffn_hidden=7)
    specs = [TaskSpec(f"t{i}", "AUROC", f"t{i}", f"t{i}_split") for i in range(3)]
    params = model.init_model(cfg, len(specs), rng(5))
    mols = molgen.molecules(rng(6), 15, 10, 40)
    qc_table = molgen.qc_values(rng(7), mols, missing_rows=0.3, missing_cells=0.3)
    smis = [m.smiles for m in mols]
    qc_rows = [qc_table.get(s) for s in smis]
    graphs = [smiles.featurize(smiles.parse_smiles(s)) for s in smis]
    blocks = []
    for g, row in zip(graphs, qc_rows):
        row = row or [None] * 4
        blocks.append(features.FeatureBlock(
            phys=features.builtin_phys_block(g),
            qc=np.array([0.0 if v is None else v for v in row]),
            qc_mask=np.array([float(v is not None) for v in row])))
    stats = features.fit_stats(blocks)
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(path, params, cfg, stats, specs)

    probs = model.predict_blocks(graphs, features.standardize(blocks, stats), params, cfg)
    np.testing.assert_allclose(reference.probabilities(path, smis, qc_rows), probs,
                               rtol=0, atol=1e-12)
