import ast
import codecs
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import synth

from mtlmolnet import cli, tables
from mtlmolnet import data as dat
from mtlmolnet import features as feat
from mtlmolnet import metrics as met
from mtlmolnet import model as mdl
from mtlmolnet.checkpoint import load_checkpoint


def small_flags(tmp_path, out="runs", variant="qw-mtl", epochs="2", seeds="0"):
    data = tmp_path / "data.csv"
    tasks = tmp_path / "tasks.json"
    qc = tmp_path / "qc.csv"
    names = synth.write_multitask_csv(data, [40, 80], seed=3, test_every=8)
    synth.write_tasks_file(tasks, names)
    table_smiles = [line.split(",")[0] for line in data.read_text().splitlines()[1:]]
    synth.write_qc_csv(qc, table_smiles, seed=4)
    return [
        "--data", str(data), "--tasks", str(tasks), "--qc", str(qc),
        "--out", str(tmp_path / out), "--variant", variant,
        "--epochs", epochs, "--seeds", seeds,
        "--hidden", "8", "--ffn-hidden", "8", "--depth", "2",
        "--batch-size", "16",
    ]


class TestTrainCommand:
    def test_two_seeds_outputs(self, tmp_path, capsys):
        rc = cli.main(["train", *small_flags(tmp_path, seeds="0,1")])
        assert rc == 0
        out_dir = tmp_path / "runs"
        assert (out_dir / "model_seed0.ckpt").exists()
        assert (out_dir / "model_seed1.ckpt").exists()
        assert (out_dir / "history_seed0.csv").exists()
        assert (out_dir / "history_seed1.csv").exists()
        assert (out_dir / "val_report.csv").exists()
        manifest = (out_dir / "manifest.json").read_text()
        assert "parameter_count" in manifest
        assert "config_hash" in manifest
        captured = capsys.readouterr()
        assert "parameter_count," in captured.out

    def test_missing_qc_exits_2_names_flag(self, tmp_path, capsys):
        flags = small_flags(tmp_path)
        i = flags.index("--qc")
        del flags[i : i + 2]
        rc = cli.main(["train", *flags])
        assert rc == cli.EXIT_CONFIG
        assert "--qc" in capsys.readouterr().err

    def test_rerun_identical_history(self, tmp_path):
        flags_a = small_flags(tmp_path, out="run_a")
        rc = cli.main(["train", *flags_a])
        assert rc == 0
        flags_b = [str(tmp_path / "run_b") if f == str(tmp_path / "run_a") else f
                   for f in flags_a]
        assert cli.main(["train", *flags_b]) == 0
        a = (tmp_path / "run_a" / "history_seed0.csv").read_bytes()
        b = (tmp_path / "run_b" / "history_seed0.csv").read_bytes()
        assert a == b

    def test_bad_data_exits_3(self, tmp_path, capsys):
        flags = small_flags(tmp_path)
        data = Path(flags[flags.index("--data") + 1])
        data.write_text("smiles,task0,task0_split,task1,task1_split,fold\n"
                        "CCO,2,train,,,1\n")
        rc = cli.main(["train", *flags])
        assert rc == cli.EXIT_DATA

    def test_non_finite_qc_cell_exits_3(self, tmp_path, capsys):
        flags = small_flags(tmp_path)
        qc = Path(flags[flags.index("--qc") + 1])
        lines = qc.read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = "nan"
        lines[2] = ",".join(cells)
        qc.write_text("\n".join(lines) + "\n")
        rc = cli.main(["train", *flags])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {qc}:3: non-finite value 'nan'"]

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines.insert(3, lines[3].rsplit(",", 1)[0]),
         "4: expected 6 fields as in the header, got 5"),
        (lambda lines: lines.insert(3, lines[3] + ",x"),
         "4: expected 6 fields as in the header, got 7"),
        (lambda lines: lines.__setitem__(0, lines[0] + ",task0"),
         "1: column(s) ['task0'] named twice in the header"),
    ], ids=["short_row", "long_row", "label_column_twice"])
    def test_malformed_dataset_exits_3(self, tmp_path, capsys, edit, message):
        flags = small_flags(tmp_path)
        data = Path(flags[flags.index("--data") + 1])
        lines = data.read_text().splitlines()
        edit(lines)
        data.write_text("\n".join(lines) + "\n")
        assert cli.main(["train", *flags]) == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {data}:{message}"]

    @pytest.mark.parametrize("epochs, passes", [("3", 3), ("0", 1)])
    def test_one_validation_pass_per_epoch(self, tmp_path, monkeypatch, capsys, epochs,
                                           passes):
        splits = []
        evaluate = mdl.evaluate_split

        def counted(view, params, features):
            splits.append(view.split)
            return evaluate(view, params, features)

        monkeypatch.setattr(mdl, "evaluate_split", counted)
        flags = small_flags(tmp_path, epochs=epochs)
        assert cli.main(["train", *flags]) == 0
        assert splits == ["val"] * passes
        # the report holds the saved model's scores, as a fresh pass finds them
        params, cfg, stats, specs = load_checkpoint(tmp_path / "runs" / "model_seed0.ckpt")
        table, _ = cli._load_table(cfg, {key: flags[flags.index(f"--{key}") + 1]
                                         for key in ("data", "tasks", "qc")})
        features = feat.feature_matrix(table.blocks, use_qc=cfg.use_qc, stats=stats)
        report = met.aggregate([evaluate(dat.select_split(table, "val"), params, features)],
                               metrics={s.name: s.metric for s in specs})
        report.to_csv(tmp_path / "expected.csv")
        assert ((tmp_path / "runs" / "val_report.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())
        assert capsys.readouterr().out.endswith(report.to_text() + "\n")

    def test_zero_epochs_builds_one_descriptor_matrix_per_seed(self, tmp_path, monkeypatch):
        # the initial model is scored on the matrix training built
        calls = []
        build = feat.feature_matrix

        def feature_matrix(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(feat, "feature_matrix", feature_matrix)
        assert cli.main(["train", *small_flags(tmp_path, epochs="0", seeds="0,1")]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("command, runs", [("train", 1), ("ablate", 4)])
    @pytest.mark.parametrize("edit", ["val_as_train", "single_class_val"])
    def test_undefined_validation_warns_once_per_seed(self, tmp_path, capsys, edit, command,
                                                      runs):
        flags = small_flags(tmp_path, epochs="1", seeds="0,1")
        data = Path(flags[flags.index("--data") + 1])
        header, *rows = data.read_text().splitlines()
        cells = [row.split(",") for row in rows]
        for row in cells:
            for col in (2, 4):
                if row[col] == "val":
                    if edit == "val_as_train":
                        row[col] = "train"
                    else:
                        row[col - 1] = "0"
        data.write_text("\n".join([header, *(",".join(row) for row in cells)]) + "\n")
        assert cli.main([command, *flags]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == runs * [f"warning: seed {seed}: no task has a defined validation "
                                   "metric; keeping the final parameters" for seed in (0, 1)]

    @pytest.mark.parametrize("text", [
        "{bad", "[1, 2]", '["a"]', '[{"name": 5, "metric": "AUROC"}]',
    ], ids=["not_json", "numbers", "string", "number_name"])
    def test_malformed_task_file_exits_3(self, tmp_path, capsys, text):
        flags = small_flags(tmp_path)
        tasks = Path(flags[flags.index("--tasks") + 1])
        tasks.write_text(text)
        rc = cli.main(["train", *flags])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {tasks}: ")

    def test_config_file_with_flag_override(self, tmp_path):
        flags = small_flags(tmp_path)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epochs = 1\nhidden = 8  # comment\nbatch-size = 16\n")
        # file sets epochs=1; flag overrides to 2
        rc = cli.main(["train", "--config", str(cfgfile), *flags])
        assert rc == 0
        hist = (tmp_path / "runs" / "history_seed0.csv").read_text()
        epochs = {row.split(",")[0] for row in hist.splitlines()[1:]}
        assert epochs == {"0", "1"}

    def test_config_file_out_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("out = elsewhere\n")
        parser = cli.build_parser()
        _, _, paths = cli.merge_config(parser.parse_args(["train", "--config", str(cfgfile)]))
        assert paths["out"] == "elsewhere"
        _, _, paths = cli.merge_config(parser.parse_args(
            ["train", "--config", str(cfgfile), "--out", "flagged"]))
        assert paths["out"] == "flagged"
        _, _, paths = cli.merge_config(parser.parse_args(["train"]))
        assert paths["out"] is None  # cmd_train writes to runs then

    def test_main_calls_parse_independently(self, monkeypatch):
        # one parser serves every call in a process; no flag carries over
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "train", lambda args: seen.append(args) or 0)
        assert cli.main(["train", "--epochs", "2", "--out", "flagged"]) == 0
        assert cli.main(["train"]) == 0
        assert (seen[0].epochs, seen[0].out) == (2, "flagged")
        assert (seen[1].epochs, seen[1].out) == (None, None)
        assert cli.build_parser() is cli.build_parser()


class TestConfigValues:
    @pytest.mark.parametrize("flags", [
        ["--batch-size", "0"],
        ["--hidden", "0"],
        ["--ffn-hidden", "0"],
        ["--epochs", "-1"],
        ["--lr", "-1"],
        ["--lr", "0"],
        ["--lr", "nan"],
        ["--lr", "inf"],
        ["--beta-min", "5", "--beta-max", "1"],
        ["--beta-min", "nan"],
        ["--beta-max", "nan"],
        ["--seeds", "-1"],
        ["--seeds", "0,-1"],
        ["--seeds", "0,0"],
    ], ids=lambda flags: "=".join(flags))
    def test_bad_value_exits_2(self, tmp_path, capsys, flags):
        rc = cli.main(["train", *small_flags(tmp_path), *flags])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "runs" / "model_seed0.ckpt").exists()

    def test_negative_env_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MTLMOLNET_SEED", "-1")
        flags = small_flags(tmp_path)
        i = flags.index("--seeds")
        del flags[i : i + 2]
        rc = cli.main(["train", *flags])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: seeds must be >= 0, got -1"]

    @pytest.mark.parametrize("key, value", [
        ("uniform_weights", "true"), ("renormalize_weights", "true"), ("dropout", "0.1"),
    ], ids=["uniform_weights", "renormalize_weights", "dropout"])
    def test_retired_weighting_key_exits_2(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        rc = cli.main(["train", "--config", str(cfgfile), *small_flags(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content, reason", [
        ("missing.cfg", None, ": No such file or directory"),
        ("latin1.cfg", "hidden = 8  # \u00b5m\n".encode("latin-1"), ":1: not UTF-8 at byte 14"),
    ], ids=["missing", "not_utf8"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, name, content, reason):
        cfgfile = tmp_path / name
        if content is not None:
            cfgfile.write_bytes(content)
        rc = cli.main(["train", "--config", str(cfgfile), *small_flags(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config file {cfgfile}{reason}"]
        assert not (tmp_path / "runs" / "model_seed0.ckpt").exists()

    def test_config_file_with_a_byte_order_mark(self, tmp_path):
        # the config file is read as every other file is: a leading BOM is dropped
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(codecs.BOM_UTF8 + b"lr = 0.002\n")
        rc = cli.main(["train", "--config", str(cfgfile), *small_flags(tmp_path, epochs="1")])
        assert rc == 0
        assert load_checkpoint(tmp_path / "runs" / "model_seed0.ckpt")[1].lr == 0.002

    def test_retired_dropout_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["train", *small_flags(tmp_path), "--dropout", "0.1"])
        assert exit_.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --dropout" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "model_seed0.ckpt").exists()

    def test_diverging_run_exits_4(self, tmp_path, capsys):
        # at batch size 500 the blow-up first shows in validation
        for batch_size in ("16", "500"):
            rc = cli.main(["train", *small_flags(tmp_path), "--lr", "1e300",
                           "--batch-size", batch_size])
            assert rc == cli.EXIT_NUMERIC
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert re.match(r"error: epoch 0: \w+ produced \d+ non-finite value\(s\)",
                            err[0])

    def test_diverging_run_prints_only_the_error(self, tmp_path):
        # numpy's overflow warnings reach a real stderr, which capsys
        # does not stand in for, so run the command in its own process
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "mtlmolnet.cli", "train", *small_flags(tmp_path),
             "--lr", "1e300"], capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == cli.EXIT_NUMERIC
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epoch 0: "), proc.stderr


class TestPredictEval:
    @pytest.fixture()
    def trained(self, tmp_path):
        flags = small_flags(tmp_path)
        assert cli.main(["train", *flags]) == 0
        return tmp_path, flags

    def test_predict_schema(self, trained, tmp_path, capsys):
        run_dir, flags = trained
        ckpt = run_dir / "runs" / "model_seed0.ckpt"
        mols = tmp_path / "mols.txt"
        mols.write_text("CCO\nCCN\nc1ccccc1\n")
        out = tmp_path / "preds.csv"
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--data", str(mols),
                       "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["smiles", "task0", "task1"]
        assert len(rows) == 4
        for row in rows[1:]:
            for cell in row[1:]:
                assert 0.0 < float(cell) < 1.0

    def test_bad_smiles_named_by_file_and_line(self, trained, tmp_path, capsys):
        # the third molecule stands on line 5, under a header and a blank line
        run_dir, _ = trained
        mols = tmp_path / "mols.txt"
        mols.write_text("smiles\nCCO\n\nCCN\nC1CC\nc1ccccc1\n")
        out = tmp_path / "preds.csv"
        capsys.readouterr()
        rc = cli.main(["predict", "--checkpoint", str(run_dir / "runs" / "model_seed0.ckpt"),
                       "--data", str(mols), "--out", str(out)])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {mols}:5: 'C1CC': ring closure 1 never closed (offset 1)"]
        assert not out.exists()

    @pytest.mark.parametrize("text, line", [
        ("CCO\nQ\n", 2),  # no header: the first line is a molecule
        ("smiles,id\nCCO,a\n\nQ,b\n", 4),  # a CSV request, its smiles column first
    ], ids=["headerless_list", "csv"])
    def test_bad_request_line_named(self, trained, tmp_path, capsys, text, line):
        run_dir, _ = trained
        mols = tmp_path / "mols.csv"
        mols.write_text(text)
        capsys.readouterr()
        rc = cli.main(["predict", "--checkpoint", str(run_dir / "runs" / "model_seed0.ckpt"),
                       "--data", str(mols)])
        assert rc == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: {mols}:{line}: 'Q': unrecognized token 'Q' (offset 0)"]

    @pytest.mark.parametrize("command", ["train", "eval", "analyze"])
    def test_bad_dataset_smiles_named_by_file_and_line(self, trained, tmp_path, capsys,
                                                       command):
        # a validation row's SMILES goes bad, and a blank line under the
        # header moves it one line further from its position in the table
        run_dir, flags = trained
        data = Path(flags[flags.index("--data") + 1])
        header, *rows = data.read_text().splitlines()
        i = next(i for i, row in enumerate(rows) if ",val" in row)
        rows[i] = "QCCN," + rows[i].split(",", 1)[1]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, ""] + rows) + "\n")
        ckpt = run_dir / "runs" / "model_seed0.ckpt"
        tasks = flags[flags.index("--tasks") + 1]
        qc = flags[flags.index("--qc") + 1]
        argv = {
            "train": ["train", *flags, "--data", str(bad), "--out", str(tmp_path / "again")],
            "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(bad), "--qc", qc],
            "analyze": ["analyze", "--history", str(ckpt.parent / "history_seed0.csv"),
                        "--data", str(bad), "--tasks", tasks, "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / "analysis")],
        }[command]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: {bad}:{i + 3}: 'QCCN': unrecognized token 'Q' (offset 0)"]

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_header_only_file_exits_3(self, trained, tmp_path, capsys, command):
        run_dir, _ = trained
        mols = tmp_path / "header_only.txt"
        mols.write_text("smiles\n")
        capsys.readouterr()
        rc = cli.main([command, "--checkpoint", str(run_dir / "runs" / "model_seed0.ckpt"),
                       "--data", str(mols)])
        assert rc == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_eval_selects_the_test_split_once(self, trained, monkeypatch):
        run_dir, flags = trained
        splits = []
        select = dat.select_split

        def select_split(table, split):
            splits.append(split)
            return select(table, split)

        monkeypatch.setattr(dat, "select_split", select_split)
        assert cli.main(["eval", "--checkpoint", str(run_dir / "runs" / "model_seed0.ckpt"),
                         "--data", flags[flags.index("--data") + 1],
                         "--qc", flags[flags.index("--qc") + 1],
                         "--out", str(run_dir / "eval.csv")]) == 0
        assert splits == ["test"]

    def test_eval_schema_and_range(self, trained, tmp_path, capsys):
        run_dir, flags = trained
        ckpt = run_dir / "runs" / "model_seed0.ckpt"
        data = flags[flags.index("--data") + 1]
        qc = flags[flags.index("--qc") + 1]
        out = tmp_path / "eval.csv"
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", data,
                       "--qc", qc, "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["task", "metric", "value"]
        assert len(rows) == 3
        for row in rows[1:]:
            if row[2] != "N/A":
                assert 0.0 <= float(row[2]) <= 1.0

    @pytest.mark.parametrize("kept", [[0, 1, 2, 3], [0, 1], [1, 0, 2], [0, 1, 3]],
                             ids=["more", "fewer", "reordered", "renamed"])
    def test_eval_tasks_must_match_the_heads(self, tmp_path, capsys, kept):
        # the data holds four tasks, the checkpoint has heads for the first three
        data, tasks = tmp_path / "data.csv", tmp_path / "tasks.json"
        names = synth.write_multitask_csv(data, [40, 40, 40, 40], seed=3, test_every=4)
        synth.write_tasks_file(tasks, names[:3])
        assert cli.main(["train", "--data", str(data), "--tasks", str(tasks),
                         "--out", str(tmp_path / "runs"), "--variant", "multi-rdkit",
                         "--epochs", "1", "--seeds", "0", "--hidden", "8",
                         "--ffn-hidden", "8", "--depth", "2"]) == 0
        eval_tasks = synth.write_tasks_file(tmp_path / "eval_tasks.json",
                                            [names[i] for i in kept])
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "runs" / "model_seed0.ckpt"),
                       "--data", str(data), "--tasks", str(eval_tasks)])
        assert rc == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "do not match the checkpoint's heads (task0, task1, task2)" in err[0]

    def test_eval_tasks_may_name_other_columns(self, trained, tmp_path, capsys):
        run_dir, flags = trained
        ckpt = run_dir / "runs" / "model_seed0.ckpt"
        data = flags[flags.index("--data") + 1]
        qc = flags[flags.index("--qc") + 1]
        base = ["eval", "--checkpoint", str(ckpt), "--data", data, "--qc", qc]
        assert cli.main(base) == 0
        default = capsys.readouterr().out
        # same heads, columns swapped: each head is scored on the other's labels
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps([
            {"name": "task0", "metric": "AUROC", "label_column": "task1",
             "split_column": "task1_split"},
            {"name": "task1", "metric": "AUROC", "label_column": "task0",
             "split_column": "task0_split"}]))
        assert cli.main([*base, "--tasks", str(swapped)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [r[0] for r in rows[1:]] == ["task0", "task1"]
        assert rows != list(csv.reader(default.splitlines()))

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_checkpoint_repeating_a_task_name_exits_3(self, trained, tmp_path, capsys,
                                                      command):
        # a hand-edited manifest is parsed as a task file is: names are unique
        run_dir, flags = trained
        ckpt = run_dir / "runs" / "model_seed0.ckpt"
        magic, line, blob = ckpt.read_bytes().split(b"\n", 2)
        manifest = json.loads(line)
        manifest["tasks"][1]["name"] = "task0"
        ckpt.write_bytes(magic + b"\n" + json.dumps(manifest).encode() + b"\n" + blob)
        capsys.readouterr()
        rc = cli.main([command, "--checkpoint", str(ckpt), "--data",
                       flags[flags.index("--data") + 1], "--qc", flags[flags.index("--qc") + 1]])
        assert rc == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {ckpt}: malformed config or tasks (duplicate task names: task0)"]

    def test_checkpoint_directory_exits_3(self, tmp_path, capsys):
        mols = tmp_path / "mols.txt"
        mols.write_text("CCO\n")
        rc = cli.main(["predict", "--checkpoint", str(tmp_path), "--data", str(mols)])
        assert rc == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_utf8_data_exits_3(self, trained, tmp_path, capsys, command):
        run_dir, flags = trained
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"smiles\nCC\xe9O\n")
        capsys.readouterr()
        rc = cli.main([command, "--checkpoint", str(run_dir / "runs" / "model_seed0.ckpt"),
                       "--data", str(data), "--qc", flags[flags.index("--qc") + 1]])
        assert rc == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_eval_no_test_data(self, trained, tmp_path, capsys):
        run_dir, flags = trained
        ckpt = run_dir / "runs" / "model_seed0.ckpt"
        data = tmp_path / "notest.csv"
        names = synth.write_multitask_csv(data, [30, 30], seed=9)  # no test split
        qc = flags[flags.index("--qc") + 1]
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                       "--qc", qc])
        assert rc == cli.EXIT_DATA


def write_phys_csv(path, smiles_list, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["smiles," + ",".join(f"d{i}" for i in range(200))]
    for smi in dict.fromkeys(smiles_list):
        lines.append(smi + "," + ",".join(repr(float(v)) for v in rng.normal(size=200)))
    path.write_text("\n".join(lines) + "\n")


class TestPhysSource:
    """Statistics fitted on one phys source must not standardize the other."""

    @pytest.fixture()
    def external(self, tmp_path):
        flags = small_flags(tmp_path)
        data = Path(flags[flags.index("--data") + 1])
        table_smiles = [line.split(",")[0] for line in data.read_text().splitlines()[1:]]
        phys = tmp_path / "phys.csv"
        write_phys_csv(phys, table_smiles + ["CCO", "CCN"])
        assert cli.main(["train", *flags, "--phys", str(phys)]) == 0
        ckpt = tmp_path / "runs" / "model_seed0.ckpt"
        mols = tmp_path / "mols.txt"
        mols.write_text("CCO\nCCN\n")
        return flags, ckpt, phys, mols

    def test_recorded_in_checkpoint(self, external):
        _, ckpt, _, _ = external
        assert load_checkpoint(ckpt)[2].phys_source == "external"

    def test_predict_needs_the_same_source(self, external, tmp_path, capsys):
        _, ckpt, phys, mols = external
        base = ["predict", "--checkpoint", str(ckpt), "--data", str(mols),
                "--out", str(tmp_path / "pred.csv")]
        capsys.readouterr()
        assert cli.main(base) == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "phys" in err[0]
        assert cli.main([*base, "--phys", str(phys)]) == 0

    def test_eval_and_analyze_refuse_builtin(self, external, tmp_path, capsys):
        flags, ckpt, _, _ = external
        data = flags[flags.index("--data") + 1]
        tasks = flags[flags.index("--tasks") + 1]
        qc = flags[flags.index("--qc") + 1]
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", data,
                         "--qc", qc]) == cli.EXIT_DATA
        rc = cli.main(["analyze", "--history", str(ckpt.parent / "history_seed0.csv"),
                       "--data", data, "--tasks", tasks, "--qc", qc,
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "analysis")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all("fitted on external phys" in e for e in err)

    def test_analyze_refuses_before_writing(self, external, tmp_path, capsys):
        flags, ckpt, _, _ = external
        data = flags[flags.index("--data") + 1]
        tasks = flags[flags.index("--tasks") + 1]
        out_dir = tmp_path / "analysis"
        capsys.readouterr()
        rc = cli.main(["analyze", "--history", str(ckpt.parent / "history_seed0.csv"),
                       "--data", data, "--tasks", tasks, "--checkpoint", str(ckpt),
                       "--out", str(out_dir)])
        assert rc == cli.EXIT_DATA
        assert not (out_dir / "beta_by_scale.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fitted on external phys" in captured.err

    def test_analyze_refuses_one_row_split(self, external, tmp_path, capsys):
        flags, ckpt, phys, _ = external
        data = Path(flags[flags.index("--data") + 1])
        tasks = flags[flags.index("--tasks") + 1]
        header, *rows = data.read_text().splitlines()
        first = next(i for i, row in enumerate(rows) if ",test" in row)
        one_row = tmp_path / "one_test_row.csv"
        one_row.write_text("\n".join([header] + [
            row if i == first else row.replace(",test", ",val")
            for i, row in enumerate(rows)]) + "\n")
        out_dir = tmp_path / "analysis"
        capsys.readouterr()
        rc = cli.main(["analyze", "--history", str(ckpt.parent / "history_seed0.csv"),
                       "--data", str(one_row), "--tasks", tasks, "--phys", str(phys),
                       "--checkpoint", str(ckpt), "--split", "test", "--out", str(out_dir)])
        assert rc == cli.EXIT_DATA
        assert not (out_dir / "beta_by_scale.csv").exists()
        assert not (out_dir / "embeddings.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "at least two" in err[0]

    def test_analyze_reads_no_descriptors(self, external, tmp_path, capsys):
        flags, ckpt, phys, _ = external
        data = Path(flags[flags.index("--data") + 1])
        tasks = flags[flags.index("--tasks") + 1]
        rows = data.read_text().splitlines()[1:]
        val_smiles = next(row.split(",")[0] for row in rows if ",val" in row)
        header, *lines = phys.read_text().splitlines()
        lacking = tmp_path / "phys_lacking.csv"
        lacking.write_text("\n".join([header] + [
            line for line in lines if line.split(",")[0] != val_smiles]) + "\n")
        out_dir = tmp_path / "analysis"
        rc = cli.main(["analyze", "--history", str(ckpt.parent / "history_seed0.csv"),
                       "--data", str(data), "--tasks", tasks, "--phys", str(lacking),
                       "--checkpoint", str(ckpt), "--out", str(out_dir)])
        assert rc == 0
        embedded = [row[0] for row in csv.reader((out_dir / "embeddings.csv").open())]
        assert val_smiles in embedded[1:]

    def test_malformed_duplicate_row_exits_3(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="1")
        data = Path(flags[flags.index("--data") + 1])
        table_smiles = [line.split(",")[0] for line in data.read_text().splitlines()[1:]]
        phys = tmp_path / "phys.csv"
        write_phys_csv(phys, table_smiles)
        lineno = len(phys.read_text().splitlines()) + 1
        with phys.open("a") as fh:
            fh.write(table_smiles[0] + "," + ",".join(["nan"] * 200) + "\n")
        rc = cli.main(["train", *flags, "--phys", str(phys)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {phys}:{lineno}: non-finite value 'nan'"]

    def test_builtin_checkpoint_refuses_external(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="1")
        assert cli.main(["train", *flags]) == 0
        ckpt = tmp_path / "runs" / "model_seed0.ckpt"
        mols = tmp_path / "mols.txt"
        mols.write_text("CCO\n")
        phys = tmp_path / "phys.csv"
        write_phys_csv(phys, ["CCO"])
        assert load_checkpoint(ckpt)[2].phys_source == "builtin"
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--data", str(mols),
                       "--phys", str(phys)])
        assert rc == cli.EXIT_DATA


class TestAblate:
    def test_four_variant_table(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="1")
        rc = cli.main(["ablate", *flags])
        assert rc == 0
        rows = list(csv.reader((tmp_path / "runs" / "ablation.csv").open()))
        assert rows[0] == ["task", "multi-rdkit", "multi-rdkit-qc",
                           "multi-rdkit-beta", "qw-mtl"]
        assert len(rows) == 3  # two tasks
        for row in rows[1:]:
            assert all("±" in cell for cell in row[1:])

    def test_missing_qc_exits_2_before_writing(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="1")
        i = flags.index("--qc")
        del flags[i : i + 2]
        rc = cli.main(["ablate", *flags])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "error: variant qw-mtl needs quantum descriptors: pass --qc"]
        assert not (tmp_path / "runs").exists()

    def test_full_variant_not_much_worse_than_base(self, tmp_path):
        # strongly separable toy data: both variants should land close
        flags = small_flags(tmp_path, epochs="6")
        rc = cli.main(["ablate", *flags])
        assert rc == 0
        rows = list(csv.reader((tmp_path / "runs" / "ablation.csv").open()))
        base = np.mean([float(r[1].split("±")[0]) for r in rows[1:]])
        full = np.mean([float(r[4].split("±")[0]) for r in rows[1:]])
        assert full >= base - 0.02


class TestBench:
    def test_degenerate_speedup_near_one(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="1")
        assert cli.main(["train", *flags]) == 0
        ckpt = tmp_path / "runs" / "model_seed0.ckpt"
        mols = tmp_path / "bench_mols.txt"
        rng = np.random.default_rng(0)
        mols.write_text("\n".join(synth.chain_molecule(rng, 24) for _ in range(40)))
        capsys.readouterr()
        rc = cli.main(["bench", "--checkpoint", str(ckpt), "--data", str(mols),
                       "--t-single", "1", "--reps", "5"])
        assert rc == 0
        out = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
        assert abs(float(out["speedup"]) - 1.0) < 0.10
        assert "parameter_count" in out

    @pytest.mark.parametrize("t_single", ["0", "-2"])
    def test_bad_t_single_exits_2(self, tmp_path, capsys, t_single):
        rc = cli.main(["bench", "--checkpoint", str(tmp_path / "model.ckpt"),
                       "--data", str(tmp_path / "mols.txt"), "--t-single", t_single])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --t-single must be >= 1")

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_bad_reps_exits_2(self, tmp_path, capsys, reps):
        rc = cli.main(["bench", "--checkpoint", str(tmp_path / "model.ckpt"),
                       "--data", str(tmp_path / "mols.txt"), "--reps", reps])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --reps must be >= 1, got {reps}"]

    def test_reps_are_not_floored(self, tmp_path, monkeypatch, capsys):
        flags = small_flags(tmp_path, epochs="1")
        assert cli.main(["train", *flags]) == 0
        mols = tmp_path / "bench_mols.txt"
        mols.write_text("CCO\nCCN\n")
        asked = []

        def timed(fns, reps):  # every pass takes a second: no scaling to 50 ms
            asked.append(reps)
            return np.ones((reps, len(fns)))

        monkeypatch.setattr(cli, "_timed", timed)
        rc = cli.main(["bench", "--checkpoint", str(tmp_path / "runs" / "model_seed0.ckpt"),
                       "--data", str(mols), "--t-single", "2", "--reps", "1"])
        assert rc == 0
        assert asked == [1, 1] and "reps,1" in capsys.readouterr().out.splitlines()

    def test_parameter_count_matches(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="1")
        assert cli.main(["train", *flags]) == 0
        ckpt = tmp_path / "runs" / "model_seed0.ckpt"
        from mtlmolnet.encoder import count_parameters

        params, cfg, _, specs = load_checkpoint(ckpt)
        expected = count_parameters(cfg, len(specs))
        mols = tmp_path / "mols.txt"
        mols.write_text("CCO\nCCN\n")
        capsys.readouterr()
        rc = cli.main(["bench", "--checkpoint", str(ckpt), "--data", str(mols),
                       "--t-single", "2", "--reps", "3"])
        assert rc == 0
        out = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
        assert int(out["parameter_count"]) == expected


class TestAnalyze:
    def test_outputs(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="2")
        assert cli.main(["train", *flags]) == 0
        run_dir = tmp_path / "runs"
        data = flags[flags.index("--data") + 1]
        tasks = flags[flags.index("--tasks") + 1]
        qc = flags[flags.index("--qc") + 1]
        rc = cli.main([
            "analyze", "--history", str(run_dir / "history_seed0.csv"),
            "--data", data, "--tasks", tasks, "--qc", qc,
            "--checkpoint", str(run_dir / "model_seed0.ckpt"),
            "--out", str(run_dir / "analysis"),
        ])
        assert rc == 0
        beta_rows = cli.read_beta_table(run_dir / "analysis" / "beta_by_scale.csv")
        assert [r[0] for r in beta_rows] == ["task0", "task1"]
        assert beta_rows[0][1] == 40 and beta_rows[1][1] == 80
        emb = (run_dir / "analysis" / "embeddings.csv").read_text().splitlines()
        pca_rows = (run_dir / "analysis" / "pca.csv").read_text().splitlines()
        assert len(pca_rows) == len(emb)  # header + one row per molecule each
        assert emb[0].startswith("smiles,e0,")

    def test_hidden_width_one_exits_3_before_writing(self, tmp_path, capsys):
        # a one-dimensional fingerprint has no second principal axis
        flags = small_flags(tmp_path, epochs="1")
        flags[flags.index("--hidden") + 1] = "1"
        assert cli.main(["train", *flags]) == 0
        ckpt = tmp_path / "runs" / "model_seed0.ckpt"
        out_dir = tmp_path / "analysis"
        capsys.readouterr()
        rc = cli.main(["analyze", "--history", str(tmp_path / "runs" / "history_seed0.csv"),
                       "--data", flags[flags.index("--data") + 1],
                       "--tasks", flags[flags.index("--tasks") + 1],
                       "--checkpoint", str(ckpt), "--out", str(out_dir)])
        assert rc == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ")
        assert not out_dir.exists()

    def test_history_missing_exits_3(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="1")
        data = flags[flags.index("--data") + 1]
        tasks = flags[flags.index("--tasks") + 1]
        rc = cli.main(["analyze", "--history", str(tmp_path / "nope.csv"),
                       "--data", data, "--tasks", tasks])
        assert rc == cli.EXIT_DATA

    def test_unlabeled_task_omits_only_the_log_scale_line(self, tmp_path, capsys):
        # log(0) of an unlabeled task's scale would print nan
        data = tmp_path / "data.csv"
        data.write_text("smiles,A,A_split,B,B_split,fold\n"
                        "CCO,1,train,,,0\nCCN,0,train,,,0\nCCC,1,val,,,0\n")
        tasks = tmp_path / "tasks.json"
        synth.write_tasks_file(tasks, ["A", "B"])
        history = tmp_path / "history.csv"
        history.write_text("epoch,task,loss,r,beta_eff,w,val_metric\n"
                           "0,A,0.5,1.0,1.5,1.0,\n0,B,0.0,0.0,0.7,0.0,\n")
        rc = cli.main(["analyze", "--history", str(history), "--data", str(data),
                       "--tasks", str(tasks), "--out", str(tmp_path / "analysis")])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["pearson_scale_beta,1.000000"]
        assert captured.err.splitlines() == [
            "warning: correlation omitted: pearson_log_scale_beta: "
            "no labeled rows for task(s) B"]


    @pytest.mark.parametrize("text, where", [
        ("epoch,task,r,beta_eff,w,val_metric\n0,task0,0.5,1.0,0.5,\n",
         ": history lacks column(s) loss"),
        ("epoch,task,loss,r,beta_eff,w,val_metric\n0,task0,0.1,0.5,1.0,0.5,\n"
         "zero,task1,0.1,0.5,1.0,0.5,\n", ":3: "),
        ("epoch,task,loss,r,beta_eff,w,val_metric\n0,task0,0.1,0.5,1.0,0.5,0.8\n"
         "0,task1,0.5,0.5,nan,0.70\n", ":3: expected 7 fields as in the header, got 6"),
        ("epoch,task,loss,r,beta_eff,w,val_metric\n0,task0,0.1,0.5,nan,0.5,0.8\n",
         ":2: non-finite beta_eff 'nan'"),
    ], ids=["no_loss_column", "epoch_zero", "truncated_row", "nan_beta"])
    def test_malformed_history_exits_3(self, tmp_path, capsys, text, where):
        history = tmp_path / "history.csv"
        history.write_text(text)
        rc = cli.main(["analyze", "--history", str(history),
                       "--data", str(tmp_path / "data.csv"),
                       "--tasks", str(tmp_path / "tasks.json")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {history}{where}")


def test_importing_cli_loads_neither_scipy_nor_numba():
    # importing scipy.sparse alone adds about 0.25 s to every command's start
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, mtlmolnet.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numba'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]", proc.stdout


def test_only_the_tables_module_reads_or_writes_csv():
    # one reader and one writer dialect: a second csv.reader cannot creep back
    package = Path(cli.__file__).resolve().parent
    importers = []
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names:
                importers.append(module.name)
    assert importers == ["tables.py"]


class TestBetaTableRoundTrip:
    def test_round_trip(self, tmp_path):
        rows = [("alpha", 640, 5.123), ("beta", 7255, 1.412)]
        path = tmp_path / "beta.csv"
        cli.write_beta_table(path, rows)
        back = cli.read_beta_table(path)
        assert back == rows

    @pytest.mark.parametrize("text, where", [
        ("task,beta_eff\nalpha,5.1\n", ": beta table lacks column(s) data_scale"),
        ("task,data_scale,beta_eff\nalpha,x,5.1\n", ":2: bad data_scale 'x'"),
        ("task,data_scale,beta_eff\nalpha,640,5.1\n\nbeta,7255.0,1.4\n",
         ":4: bad data_scale '7255.0'"),
        ("task,data_scale,beta_eff\nalpha,640,nan\n", ":2: non-finite beta_eff 'nan'"),
    ], ids=["no_scale_column", "scale_x", "scale_float", "nan_beta"])
    def test_malformed_table_refused_by_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "beta.csv"
        path.write_text(text)
        with pytest.raises(tables.DatasetError, match=f"^{re.escape(str(path) + where)}$"):
            cli.read_beta_table(path)
