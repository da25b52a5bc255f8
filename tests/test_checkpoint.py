import json

import numpy as np
import pytest

from mtlmolnet import cli
from mtlmolnet import model as mdl
from mtlmolnet.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mtlmolnet.config import TrainConfig
from mtlmolnet.data import TaskSpec
from mtlmolnet.features import FeatureStats
from mtlmolnet.model import CheckpointMismatch

SPECS = [TaskSpec("A", "AUROC", "A", "A_split"),
         TaskSpec("B", "AUPRC", "B", "B_split")]


def make_stats(rng):
    return FeatureStats(
        phys_mean=rng.normal(size=200),
        phys_std=np.abs(rng.normal(size=200)) + 0.5,
        qc_mean=rng.normal(size=4),
        qc_std=np.abs(rng.normal(size=4)) + 0.5,
    )


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = TrainConfig(variant="qw-mtl", hidden=7, depth=2, ffn_hidden=5)
        rng = np.random.default_rng(0)
        params = mdl.init_model(cfg, n_tasks=2, rng=rng)
        params.weighting.log_beta.data[:] = [0.3, -0.7]
        stats = make_stats(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, stats, SPECS)

        loaded, cfg2, stats2, specs2 = load_checkpoint(path)
        assert cfg2.to_dict() == cfg.to_dict()
        assert [s.name for s in specs2] == ["A", "B"]
        assert specs2[1].metric == "AUPRC"
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        np.testing.assert_array_equal(stats.phys_mean, stats2.phys_mean)
        np.testing.assert_array_equal(stats.qc_std, stats2.qc_std)

    def test_loaded_tensors_are_views_of_one_vector(self, tmp_path):
        cfg = TrainConfig(variant="qw-mtl", hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(9)), SPECS)
        loaded = load_checkpoint(path)[0]
        np.testing.assert_array_equal(loaded.store.flat.view(np.int64),
                                      params.store.flat.view(np.int64))
        for name, t in loaded.named_tensors():
            assert np.shares_memory(t.data, loaded.store.flat), name
        for t in (loaded.encoder.w_in, loaded.heads[1].b2, loaded.weighting.log_beta):
            assert np.shares_memory(t.data, loaded.store.flat)

    @pytest.mark.parametrize("value", [False, True])
    def test_retired_weighting_keys_load(self, tmp_path, value):
        cfg = TrainConfig(variant="qw-mtl", hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(10)), SPECS)
        write_manifest(path, lambda m: {**m, "config": {
            **m["config"], "uniform_weighting": value, "renormalize_weights": value}})
        loaded, cfg2, _, _ = load_checkpoint(path)
        assert cfg2.to_dict() == cfg.to_dict()
        np.testing.assert_array_equal(loaded.store.flat, params.store.flat)
        mols = tmp_path / "mols.txt"
        mols.write_text("CCO\n")
        assert cli.main(["predict", "--checkpoint", str(path), "--data", str(mols),
                         "--out", str(tmp_path / "pred.csv")]) == 0

    def test_header_is_versioned(self, tmp_path):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(1)), SPECS[:1])
        with open(path, "rb") as fh:
            assert fh.readline().strip().decode() == MAGIC

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT\n{}\n")
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(1)), SPECS[:1])
        data = path.read_bytes()
        path.write_bytes(data[:-64])
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    def test_loaded_params_are_trainable(self, tmp_path):
        cfg = TrainConfig(variant="qw-mtl", hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(2)), SPECS)
        loaded, cfg2, _, _ = load_checkpoint(path)
        assert loaded.weighting.log_beta.requires_grad
        names = [n for n, _ in loaded.named_tensors()]
        assert "log_beta" in names and "encoder.w_in" in names

    @pytest.mark.parametrize("descriptors", [
        None,
        ["mol_weight", "heavy_atoms", "ring_bonds", "aromatic_atoms", "rotatable_bonds",
         "hbond_donors", "hbond_acceptors", "formal_charge_sum", "halogens", "heteroatoms",
         "max_degree", "mean_degree", "fraction_aromatic", "bonds", "components",
         "logp_surrogate"],
    ])
    def test_descriptor_mismatch_rejected(self, tmp_path, capsys, descriptors):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(3)), SPECS[:1])
        magic, manifest, blob = path.read_bytes().split(b"\n", 2)
        manifest = json.loads(manifest)
        manifest.pop("descriptors")
        if descriptors is not None:
            manifest["descriptors"] = descriptors
        path.write_bytes(magic + b"\n" + json.dumps(manifest).encode() + b"\n" + blob)

        with pytest.raises(CheckpointMismatch, match="'bonds'"):
            load_checkpoint(path)
        mols = tmp_path / "mols.txt"
        mols.write_text("CCO\n")
        rc = cli.main(["predict", "--checkpoint", str(path), "--data", str(mols),
                       "--out", str(tmp_path / "pred.csv")])
        assert rc == 3
        assert "bonds" in capsys.readouterr().err


def write_manifest(path, edit):
    """Rewrite a saved checkpoint's manifest line with ``edit(manifest)``,
    which returns the replacement object, or bytes to write verbatim."""
    magic, manifest, blob = path.read_bytes().split(b"\n", 2)
    new = edit(json.loads(manifest))
    line = new if isinstance(new, bytes) else json.dumps(new).encode()
    path.write_bytes(magic + b"\n" + line + b"\n" + blob)


def without(key):
    return lambda m: {k: v for k, v in m.items() if k != key}


def with_tensor_entry(entry):
    return lambda m: {**m, "tensors": [entry] + m["tensors"][1:]}


def assert_refused(path, tmp_path, capsys, match=None):
    with pytest.raises(CheckpointMismatch, match=match):
        load_checkpoint(path)
    mols = tmp_path / "mols.txt"
    mols.write_text("CCO\n")
    rc = cli.main(["predict", "--checkpoint", str(path), "--data", str(mols),
                   "--out", str(tmp_path / "pred.csv")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


class TestManifestHardening:
    @pytest.mark.parametrize("edit", [
        lambda m: b"{not json",
        lambda m: b"\xff\xfe",
        lambda m: [1, 2],
        lambda m: "a string",
        without("config"),
        without("tasks"),
        without("tensors"),
        lambda m: {**m, "tensors": {"encoder.w_in": 0}},
        lambda m: {**m, "config": {"variant": "no-such-variant"}},
        lambda m: {**m, "tasks": [{"name": "A"}]},
        lambda m: {**m, "tasks": [1]},
        lambda m: {**m, "descriptors": 5},
        with_tensor_entry("encoder.w_in"),
        with_tensor_entry({"shape": [4, 4], "offset": 0}),
        with_tensor_entry({"name": "encoder.w_in", "shape": "4x4", "offset": 0}),
        with_tensor_entry({"name": "encoder.w_in", "shape": [4, -1], "offset": 0}),
        with_tensor_entry({"name": "encoder.w_in", "shape": [4, 4], "offset": -8}),
        with_tensor_entry({"name": "encoder.w_in", "shape": [4, 4], "offset": "0"}),
        with_tensor_entry({"name": "encoder.w_in", "shape": [4, 4]}),
        with_tensor_entry({"name": "encoder.w_in", "shape": [10 ** 12], "offset": 0}),
    ])
    def test_malformed_manifest_exits_3(self, tmp_path, capsys, edit):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(4)), SPECS[:1])
        write_manifest(path, edit)
        assert_refused(path, tmp_path, capsys)


class TestTensorShapes:
    def test_stats_shape_checked(self, tmp_path, capsys):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        stats = make_stats(np.random.default_rng(7))
        stats.phys_mean = stats.phys_mean[:3]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, stats, SPECS[:1])
        assert_refused(path, tmp_path, capsys, match=r"stats\.phys_mean has shape \(3,\)")

    def test_log_beta_shape_checked(self, tmp_path, capsys):
        cfg = TrainConfig(variant="qw-mtl", hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(8)), SPECS)
        # the store cannot hold a mis-shaped log_beta, so the file says it has one
        write_manifest(path, lambda m: {**m, "tensors": [
            {**e, "shape": [1]} if e["name"] == "log_beta" else e for e in m["tensors"]]})
        assert_refused(path, tmp_path, capsys, match=r"log_beta has shape \(1,\)")


class TestPhysSource:
    @pytest.mark.parametrize("source", ["builtin", "external"])
    def test_round_trip(self, tmp_path, source):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        stats = make_stats(np.random.default_rng(5))
        stats.phys_source = source
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, stats, SPECS[:1])
        assert load_checkpoint(path)[2].phys_source == source

    @pytest.mark.parametrize("edit", [without("phys_source"),
                                      lambda m: {**m, "phys_source": "rdkit"}])
    def test_missing_or_unknown_record_rejected(self, tmp_path, capsys, edit):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(6)), SPECS[:1])
        write_manifest(path, edit)
        assert_refused(path, tmp_path, capsys, match="phys source")
