import contextlib
import io
import json
import os
import re
import threading

import numpy as np
import pytest

from mtlmolnet import cli
from mtlmolnet import model as mdl
from mtlmolnet.checkpoint import _STATS_DIMS, MAGIC, load_checkpoint, save_checkpoint
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

    @pytest.mark.parametrize("value", [
        {"uniform_weighting": False, "renormalize_weights": False},
        {"uniform_weighting": True, "renormalize_weights": True},
        {"dropout": 0.1},
    ], ids=["False", "True", "dropout"])
    def test_retired_weighting_keys_load(self, tmp_path, value):
        cfg = TrainConfig(variant="qw-mtl", hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(10)), SPECS)
        write_manifest(path, lambda m: {**m, "config": {**m["config"], **value}})
        loaded, cfg2, _, _ = load_checkpoint(path)
        assert cfg2.to_dict() == cfg.to_dict()
        np.testing.assert_array_equal(loaded.store.flat, params.store.flat)
        mols = tmp_path / "mols.txt"
        mols.write_text("CCO\n")
        assert cli.main(["predict", "--checkpoint", str(path), "--data", str(mols),
                         "--out", str(tmp_path / "pred.csv")]) == 0

    def test_blob_is_the_store_then_the_stats(self, tmp_path):
        cfg = TrainConfig(variant="qw-mtl", hidden=5, ffn_hidden=3, depth=2)
        params = mdl.init_model(cfg, n_tasks=2, rng=np.random.default_rng(12))
        params.weighting.log_beta.data[:] = [0.3, -0.7]
        stats = make_stats(np.random.default_rng(13))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, stats, SPECS)
        blob = path.read_bytes().split(b"\n", 2)[2]
        stats_bytes = b"".join(getattr(stats, key).astype("<f8").tobytes()
                               for key in _STATS_DIMS)
        # each tensor's bytes in layout order, then the statistics
        assert blob == b"".join(t.data.astype("<f8").tobytes()
                                for _, t in params.named_tensors()) + stats_bytes
        assert blob == params.store.flat.astype("<f8").tobytes() + stats_bytes
        loaded, _, stats2, _ = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.store.flat.view(np.int64),
                                      params.store.flat.view(np.int64))
        for key in _STATS_DIMS:
            np.testing.assert_array_equal(getattr(stats2, key).view(np.int64),
                                          getattr(stats, key).view(np.int64))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_loads_from_a_pipe(self, tmp_path):
        cfg = TrainConfig(variant="qw-mtl", hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(11)), SPECS)
        pipe = tmp_path / "pipe.ckpt"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        loaded = load_checkpoint(pipe)[0]
        writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(loaded.store.flat, params.store.flat)

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

    def test_trailing_bytes_refused(self, tmp_path, capsys):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(1)), SPECS[:1])
        need = len(path.read_bytes().split(b"\n", 2)[2])
        with open(path, "ab") as fh:
            fh.write(bytes(16))
        assert_refused(path, tmp_path, capsys,
                       match=f"blob has {need + 16} bytes, its layout needs {need}")

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
        with_tensor_entry({"name": "encoder.w_in", "shape": 5, "offset": 0}),
        lambda m: {**m, "tensors": m["tensors"][::-1]},
        lambda m: {**m, "tensors": m["tensors"] + [{"name": "x", "shape": [1], "offset": 0}]},
        lambda m: {**m, "tensors": m["tensors"][:3] + m["tensors"][4:]},
        lambda m: {**m, "tasks": []},
    ])
    def test_malformed_manifest_exits_3(self, tmp_path, capsys, edit):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(4)), SPECS[:1])
        write_manifest(path, edit)
        assert_refused(path, tmp_path, capsys)

    @pytest.mark.parametrize("edit, match", [
        (lambda m: {**m, "tasks": []}, "records no tasks"),
        (lambda m: {**m, "tensors": m["tensors"][::-1]},
         r"expected tensor encoder\.w_in, found entry \{'name': 'stats\.qc_std'"),
        (lambda m: {**m, "tensors": m["tensors"][:-1]}, "missing tensor stats.qc_std$"),
        (lambda m: {**m, "tensors": m["tensors"] + [{"name": "extra"}]},
         "unexpected tensor entry {'name': 'extra'}"),
        (with_tensor_entry({"name": "encoder.w_in", "shape": 5, "offset": 0}),
         r"tensor encoder\.w_in has shape 5, expected \(39, 4\)"),
        (with_tensor_entry({"name": "encoder.w_in", "shape": [39, 4], "offset": 8}),
         "tensor encoder.w_in has entry .*, expected .*'offset': 0"),
    ], ids=["no_tasks", "reversed", "dropped", "extra", "scalar_shape", "offset"])
    def test_directory_difference_named(self, tmp_path, capsys, edit, match):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(4)), SPECS[:1])
        write_manifest(path, edit)
        assert_refused(path, tmp_path, capsys, match=match)

    @pytest.mark.parametrize("key, value", [("atom_dim", 10), ("bond_dim", 3)])
    def test_featurizer_dims_refused(self, tmp_path, capsys, key, value):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(4)), SPECS[:1])
        write_manifest(path, lambda m: {**m, "config": {**m["config"], key: value}})
        assert_refused(path, tmp_path, capsys, match=f"{key} must be the featurizer's")


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


class TestIntegerConfigFields:
    """An integer field of the config that holds anything but an integer, a
    bool included, is refused by ``TrainConfig``; in a checkpoint's manifest
    that makes a malformed config (exit 3), not a traceback."""

    @pytest.mark.parametrize("key, value", [
        ("hidden", 4.0), ("depth", 2.5), ("depth", 4.0), ("depth", float("nan")),
        ("hidden", True), ("ffn_hidden", "3"), ("epochs", 30.0), ("seed", False),
        ("batch_size", None), ("atom_dim", [39])])
    def test_checkpoint_refused_as_malformed_config(self, tmp_path, capsys, key, value):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(4)), SPECS[:1])
        write_manifest(path, lambda m: {**m, "config": {**m["config"], key: value}})
        assert_refused(path, tmp_path, capsys,
                       match=f"^{re.escape(str(path))}: malformed config or tasks "
                             f"\\({key} must be an integer, got ")

    @pytest.mark.parametrize("value", [4.0, True, np.float64(4.0), np.bool_(True), "4"],
                             ids=["float", "bool", "np_float64", "np_bool", "string"])
    def test_non_integer_raises(self, value):
        with pytest.raises(ValueError, match="^hidden must be an integer, got "):
            TrainConfig(hidden=value)

    def test_numpy_integers_pass_as_python_ints(self):
        cfg = TrainConfig(hidden=np.int64(4), depth=np.int32(2), seed=np.uint8(3))
        assert [(type(v), v) for v in (cfg.hidden, cfg.depth, cfg.seed)] == [
            (int, 4), (int, 2), (int, 3)]
        json.dumps(cfg.to_dict())  # so the manifest can record them


class TestFloatConfigFields:
    """``lr``, ``beta_min`` and ``beta_max`` take a real number and nothing
    else, a bool included; in a checkpoint's manifest anything else makes a
    malformed config (exit 3, one ``error:`` line naming the file)."""

    @pytest.mark.parametrize("key", ["lr", "beta_min", "beta_max"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]],
                             ids=["true", "false", "string", "null", "list"])
    def test_checkpoint_refused_as_malformed_config(self, tmp_path, key, value):
        cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
        params = mdl.init_model(cfg, n_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, make_stats(np.random.default_rng(4)), SPECS[:1])
        write_manifest(path, lambda m: {**m, "config": {**m["config"], key: value}})
        with pytest.raises(CheckpointMismatch,
                           match=f"^{re.escape(str(path))}: malformed config or tasks "
                                 f"\\({key} must be a real number, got "):
            load_checkpoint(path)
        (tmp_path / "mols.txt").write_text("CCO\n")
        assert predict_on(tmp_path, f"{key} as {value!r}", path.read_bytes()) == cli.EXIT_DATA

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.001", None],
                             ids=["bool", "np_bool", "string", "none"])
    @pytest.mark.parametrize("key", ["lr", "beta_min", "beta_max"])
    def test_non_real_raises(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a real number, got "):
            TrainConfig(**{key: value})

    def test_real_numbers_are_stored_as_floats(self):
        cfg = TrainConfig(lr=np.float32(0.5), beta_min=0, beta_max=np.int64(3))
        assert [(type(v), v) for v in (cfg.lr, cfg.beta_min, cfg.beta_max)] == [
            (float, 0.5), (float, 0.0), (float, 3.0)]
        json.dumps(cfg.to_dict())


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A directory holding a valid two-task checkpoint and a request file."""
    d = tmp_path_factory.mktemp("contract")
    cfg = TrainConfig(hidden=4, ffn_hidden=3, depth=1)
    params = mdl.init_model(cfg, n_tasks=2, rng=np.random.default_rng(9))
    save_checkpoint(d / "model.ckpt", params, cfg, make_stats(np.random.default_rng(9)), SPECS)
    (d / "mols.txt").write_text("CCO\nc1ccccc1O\nCC(=O)N\n")
    return d


def predict_on(d, label, raw):
    """``predict`` on a checkpoint holding the bytes ``raw``: its exit code,
    after checking the contract: it returns 0, 2, 3 or 4, raises nothing
    and prints at most one ``error:`` line, which names the file on exit 3."""
    path = d / "mutated.ckpt"
    path.write_bytes(raw)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(["predict", "--checkpoint", str(path), "--data", str(d / "mols.txt"),
                           "--out", str(d / "out.csv")])
    except Exception as exc:  # the contract is that nothing escapes main
        pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert rc in (0, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC), label
    assert len(errors) == (rc != 0), (label, errors)
    if rc == cli.EXIT_DATA:
        assert errors[0].startswith(f"error: {path}: "), (label, errors)
    return rc


class TestInputContract:
    """Mutated checkpoints, deterministically: truncations, bit flips and
    inserted NUL bytes in each part of the file, and every config and task
    value swapped for each JSON type. A flipped blob byte may load and exit
    0, since the blob carries no checksum."""

    def test_the_valid_file_predicts(self, saved):
        assert predict_on(saved, "valid", (saved / "model.ckpt").read_bytes()) == 0

    @pytest.mark.parametrize("op", ["truncate", "flip", "nul"])
    @pytest.mark.parametrize("part", ["header", "manifest", "blob"])
    def test_byte_mutations(self, saved, part, op):
        raw = (saved / "model.ckpt").read_bytes()
        header, manifest, _ = raw.split(b"\n", 2)
        start, end = {"header": (0, len(header) + 1),
                      "manifest": (len(header) + 1, len(header) + len(manifest) + 2),
                      "blob": (len(header) + len(manifest) + 2, len(raw))}[part]
        rng = np.random.default_rng(["header", "manifest", "blob"].index(part))
        for at in [start, end - 1, *rng.integers(start, end, 14)]:
            mutated = {"truncate": raw[:at],
                       "flip": raw[:at] + bytes([raw[at] ^ 1 << int(rng.integers(8))])
                       + raw[at + 1:],
                       "nul": raw[:at] + b"\0" + raw[at:]}[op]
            predict_on(saved, f"{part} {op} at byte {at}", mutated)

    @pytest.mark.parametrize("kind", ["float", "bool", "string", "null", "list"])
    def test_type_swaps(self, saved, kind):
        raw = (saved / "model.ckpt").read_bytes()
        header, line, blob = raw.split(b"\n", 2)
        manifest = json.loads(line)

        swapped = {"float": lambda v: float(v) if isinstance(v, int) else 2.5,
                   "bool": lambda v: True, "string": json.dumps, "null": lambda v: None,
                   "list": lambda v: [v]}[kind]

        def run(label, edited):
            return predict_on(saved, label, header + b"\n" + json.dumps(edited).encode()
                              + b"\n" + blob)

        for key, value in manifest["config"].items():
            config = {**manifest["config"], key: swapped(value)}
            rc = run(f"config {key} as {kind}", {**manifest, "config": config})
            if isinstance(value, int):  # an integer field takes nothing else
                assert rc == cli.EXIT_DATA, key
        for key, value in manifest["tasks"][0].items():
            tasks = [{**manifest["tasks"][0], key: swapped(value)}, *manifest["tasks"][1:]]
            run(f"task {key} as {kind}", {**manifest, "tasks": tasks})
