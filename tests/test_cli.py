import csv
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import synth

from mtlmolnet import cli
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
        ["--dropout", "1.0"],
        ["--dropout", "-0.1"],
        ["--beta-min", "5", "--beta-max", "1"],
    ], ids=lambda flags: "=".join(flags))
    def test_bad_value_exits_2(self, tmp_path, capsys, flags):
        rc = cli.main(["train", *small_flags(tmp_path), *flags])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "runs" / "model_seed0.ckpt").exists()

    @pytest.mark.parametrize("key", ["uniform_weights", "renormalize_weights"])
    def test_retired_weighting_key_exits_2(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = true\n")
        rc = cli.main(["train", "--config", str(cfgfile), *small_flags(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_diverging_run_exits_4(self, tmp_path, capsys):
        rc = cli.main(["train", *small_flags(tmp_path), "--lr", "1e300"])
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert re.match(r"error: epoch 0: \w+ produced \d+ non-finite value\(s\)", err[0])


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

    def test_history_missing_exits_3(self, tmp_path, capsys):
        flags = small_flags(tmp_path, epochs="1")
        data = flags[flags.index("--data") + 1]
        tasks = flags[flags.index("--tasks") + 1]
        rc = cli.main(["analyze", "--history", str(tmp_path / "nope.csv"),
                       "--data", data, "--tasks", tasks])
        assert rc == cli.EXIT_DATA


class TestBetaTableRoundTrip:
    def test_round_trip(self, tmp_path):
        rows = [("alpha", 640, 5.123), ("beta", 7255, 1.412)]
        path = tmp_path / "beta.csv"
        cli.write_beta_table(path, rows)
        back = cli.read_beta_table(path)
        assert back == rows
