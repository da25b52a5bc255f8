"""The one CSV reader and the input-surface contract of every file kind.

The contract: whatever bytes a dataset CSV, task spec, ``--qc`` or
``--phys`` file, SMILES list or history holds, ``cli.main`` returns 0, 2, 3
or 4, never raises, and prints at most one ``error:`` line; a decode or
width fault is refused naming the file and the line.
"""

import ast
import codecs
import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
import synth

from mtlmolnet import cli, smiles, tables
from mtlmolnet import features as feat
from mtlmolnet import model as mdl

BOM = codecs.BOM_UTF8


def read_all(path):
    header, rows = tables.read_csv(path)
    return header, list(rows)


class TestReadCsv:
    def test_rows_carry_their_physical_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b'a,b\r\n1,2\r\n\r\n"x\ny",3\n\n4,5\n')
        assert read_all(p) == (["a", "b"], [(2, ["1", "2"]), (5, ["x\ny", "3"]),
                                            (7, ["4", "5"])])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"smiles,v\nCCO,1\n")
        marked.write_bytes(BOM + plain.read_bytes())
        assert read_all(marked) == read_all(plain) == (["smiles", "v"], [(2, ["CCO", "1"])])

    @pytest.mark.parametrize("raw, where", [
        (b"a,b\n1,2\n3,\xe9\n", ":3: not UTF-8 at byte 10"),
        (BOM + b"a,b\n1,2\n3,\xe9\n", ":3: not UTF-8 at byte 13"),
        (b"a,b\r1,\xff\r", ":2: not UTF-8 at byte 6"),
        (b"\xe9", ":1: not UTF-8 at byte 0"),
    ], ids=["lf", "bom", "cr", "first_byte"])
    def test_undecodable_byte_is_refused_by_line_and_offset(self, tmp_path, raw, where):
        p = tmp_path / "t.csv"
        p.write_bytes(raw)
        with pytest.raises(tables.DatasetError, match=f"^{re.escape(str(p) + where)}$"):
            tables.read_csv(p)

    def test_width_is_checked_as_rows_are_reached(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n\n3\n")
        header, rows = tables.read_csv(p)  # the ragged row is not read yet
        assert header == ["a", "b"] and next(rows) == (2, ["1", "2"])
        with pytest.raises(tables.MalformedRow,
                           match=f"^{re.escape(str(p))}:4: expected 2 fields as in the "
                                 "header, got 1$"):
            next(rows)

    @pytest.mark.parametrize("text", ["", "\n", "\n\na,b\n"], ids=["empty", "blank", "late"])
    def test_a_file_without_a_first_line_header_is_empty(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(tables.EmptyDataset, match=":1: no header row$"):
            tables.read_csv(p)

    def test_a_csv_fault_is_refused_by_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a\n1\n" + "x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(tables.MalformedRow, match=":3: field larger than field limit"):
            read_all(p)

    def test_writer_ends_lines_with_newline(self):
        fh = io.StringIO(newline="")
        tables.writer(fh).writerows([["a", "b,c"], ["1", "2"]])
        assert fh.getvalue() == 'a,"b,c"\n1,2\n'


class TestNumber:
    @pytest.mark.parametrize("text, kind, value", [
        ("1.5", float, 1.5), (" -2e-3 ", float, -2e-3), ("0.1", float, 0.1),
        ("7", int, 7), (" 12 ", int, 12)])
    def test_finite_number_is_read(self, text, kind, value):
        got = tables.number(text, "t.csv", 2, kind=kind)
        assert got == value and type(got) is kind

    @pytest.mark.parametrize("text, column, message", [
        ("x", None, "t.csv:4: bad number 'x'"),
        ("", None, "t.csv:4: bad number ''"),
        ("nan", None, "t.csv:4: non-finite value 'nan'"),
        ("-inf", None, "t.csv:4: non-finite value '-inf'"),
        ("1e999", "beta_eff", "t.csv:4: non-finite beta_eff '1e999'"),
        ("1,5", "loss", "t.csv:4: bad loss '1,5'")])
    def test_refusal_names_file_line_column_and_cell(self, text, column, message):
        with pytest.raises(tables.MalformedRow, match=f"^{re.escape(message)}$"):
            tables.number(text, "t.csv", 4, column)

    @pytest.mark.parametrize("text", ["2.0", "2.5", "nan", "x"])
    def test_an_integer_cell_takes_no_fraction(self, text):
        with pytest.raises(tables.MalformedRow, match=f"^t.csv:3: bad epoch {text!r}$"):
            tables.number(text, "t.csv", 3, "epoch", int)


class TestWriteCsv:
    def test_floats_round_trip_and_none_is_empty(self, tmp_path):
        p = tmp_path / "t.csv"
        cells = [0.1, 1e16, -0.0, np.float64(1 / 3), float("nan")]
        tables.write_csv(p, ["a", "b", "c", "d", "e", "f", "g"],
                         [["x,y", 3, *cells], ["z", None, *cells[::-1]]])
        assert p.read_text() == ('a,b,c,d,e,f,g\n'
                                 '"x,y",3,0.1,1e+16,-0.0,0.3333333333333333,nan\n'
                                 'z,,nan,0.3333333333333333,-0.0,1e+16,0.1\n')
        header, rows = tables.read_csv(p)
        assert [float(c) for c in next(rows)[1][2:6]] == cells[:4]

    def test_no_path_writes_to_stdout(self, capsys):
        tables.write_csv(None, ["a"], ([v] for v in (1.5, "b")))
        assert capsys.readouterr().out == "a\n1.5\nb\n"

    def test_stdout_keeps_the_order_of_earlier_prints(self, capfd):
        print("first")
        tables.echo("\u00b5 second")
        print("third")
        assert capfd.readouterr().out == "first\n\u00b5 second\nthird\n"

    def test_stdout_without_a_byte_buffer_takes_text(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            tables.echo("a\u00b1b")
        assert out.getvalue() == "a\u00b1b\n"


def test_only_the_tables_module_writes_to_stdout():
    # one encoding: every other print names a stream, and only tables names stdout
    package = Path(tables.__file__).resolve().parent
    writers = sorted({module.name for module in package.glob("*.py")
                      for node in ast.walk(ast.parse(module.read_text()))
                      if (isinstance(node, ast.Attribute) and node.attr == "stdout")
                      or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "print"
                          and not any(k.arg == "file" for k in node.keywords))})
    assert writers == ["tables.py"]


def test_only_the_tables_module_writes_csv_rows():
    # one writer: no module writes a row of its own, with its own float format
    package = Path(tables.__file__).resolve().parent
    writers = sorted({module.name for module in package.glob("*.py")
                      for node in ast.walk(ast.parse(module.read_text()))
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("writerow", "writerows")})
    assert writers == ["tables.py"]


def _opens_text(call):
    """Whether ``call`` opens a file in text mode: ``open`` or ``Path.open``
    without a binary mode, or a ``read_text`` / ``write_text`` other than
    ``tables.read_text``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
        return not (isinstance(func.value, ast.Name) and func.value.id == "tables")
    if isinstance(func, ast.Name) and func.id == "open":
        mode_at = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode_at = 0
    else:
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[mode_at] if len(call.args) > mode_at else None)
    return not (isinstance(mode, ast.Constant) and "b" in mode.value)


def test_only_the_tables_module_opens_text_files():
    # one encoding: no module reads or writes text in the locale's encoding
    package = Path(tables.__file__).resolve().parent
    openers = sorted({module.name for module in package.glob("*.py")
                      for node in ast.walk(ast.parse(module.read_text()))
                      if isinstance(node, ast.Call) and _opens_text(node)})
    assert openers == ["tables.py"]


def test_feature_file_errors_are_dataset_errors():
    # and every other refusal of an input, which main maps to exit 3 by this base
    for err in (feat.FeatureFileError, feat.MalformedRow, feat.WrongColumnCount,
                feat.MissingMolecule, smiles.SmilesError, mdl.CheckpointMismatch,
                cli.NoTestData, cli.HistoryMissing):
        assert issubclass(err, tables.DatasetError)


@pytest.fixture(scope="module")
def micro_task(tmp_path_factory):
    """A dataset whose first task is named 'µ-task', its task file, qc
    file and SMILES list, and a multi-rdkit checkpoint trained on them."""
    d = tmp_path_factory.mktemp("micro")
    names = synth.write_multitask_csv(d / "data.csv", [24, 16], seed=3, test_every=4)
    text = (d / "data.csv").read_text().replace(names[0], "\u00b5-task")
    (d / "data.csv").write_text(text, encoding="utf-8")
    synth.write_tasks_file(d / "tasks.json", ["\u00b5-task", names[1]])
    synth.write_qc_csv(d / "qc.csv", [row.split(",")[0] for row in text.splitlines()[1:]],
                       seed=4)
    (d / "mols.smi").write_text("CCO\nc1ccccc1O\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--data", str(d / "data.csv"), "--tasks",
                         str(d / "tasks.json"), "--variant", "multi-rdkit", "--epochs", "1",
                         "--hidden", "4", "--ffn-hidden", "4", "--depth", "2",
                         "--out", str(d / "runs")]) == 0
    return d


def ascii_locale_env():
    """The environment with a C locale, UTF-8 mode off and the package on
    ``PYTHONPATH``: Python then writes text in ASCII by default."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]),
        "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def test_non_ascii_task_name_round_trips_under_an_ascii_locale(micro_task):
    # files are written in UTF-8, as they are read, whatever the locale says
    script = ("import sys\n"
              "from mtlmolnet import cli, tables\n"
              "ckpt, mols, out = sys.argv[1:]\n"
              "rc = cli.main(['predict', '--checkpoint', ckpt, '--data', mols, '--out', out])\n"
              "print(rc, ascii(tables.read_csv(out)[0]))\n")
    proc = subprocess.run([sys.executable, "-c", script,
                           str(micro_task / "runs" / "model_seed0.ckpt"),
                           str(micro_task / "mols.smi"), str(micro_task / "out.csv")],
                          capture_output=True, text=True, env=ascii_locale_env())
    assert proc.stdout == "0 ['smiles', '\\xb5-task', 'task1']\n", proc.stderr


SMALL = "--epochs 1 --seeds 0 --hidden 4 --ffn-hidden 4 --depth 2"

# per command: its arguments, and text its standard output must hold
STDOUT_CASES = {
    "train": (f"train --data {{d}}/data.csv --tasks {{d}}/tasks.json --variant multi-rdkit "
              f"{SMALL} --out {{d}}/train", "\n\u00b5-task  AUROC   nan\u00b1nan\n"),
    "ablate": (f"ablate --data {{d}}/data.csv --tasks {{d}}/tasks.json --qc {{d}}/qc.csv "
               f"{SMALL} --out {{d}}/ablate", "\n\u00b5-task,nan\u00b1nan,"),
    "predict": ("predict --checkpoint {d}/runs/model_seed0.ckpt --data {d}/mols.smi",
                "smiles,\u00b5-task,task1\n"),
    "eval": ("eval --checkpoint {d}/runs/model_seed0.ckpt --data {d}/data.csv",
             "\n\u00b5-task,AUROC,"),
}


@pytest.mark.parametrize("command", STDOUT_CASES)
def test_stdout_is_utf8_under_an_ascii_locale(micro_task, command):
    # standard output is written in UTF-8, as every file is, whatever the locale says
    args, text = STDOUT_CASES[command]
    proc = subprocess.run([sys.executable, "-m", "mtlmolnet.cli",
                           *args.format(d=micro_task).split()],
                          capture_output=True, env=ascii_locale_env())
    assert proc.returncode == 0, proc.stderr.decode("ascii", "backslashreplace")
    assert text in proc.stdout.decode("utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid files of every kind, and a qc and a phys checkpoint trained on them."""
    d = tmp_path_factory.mktemp("inputs")
    names = synth.write_multitask_csv(d / "data.csv", [24, 16], seed=3, test_every=4)
    synth.write_tasks_file(d / "tasks.json", names)
    smiles = [line.split(",")[0] for line in (d / "data.csv").read_text().splitlines()[1:]]
    synth.write_qc_csv(d / "qc.csv", smiles, seed=4)
    (d / "mols.smi").write_text("smiles\n" + "\n".join(smiles[:6]) + "\n")
    rng = np.random.default_rng(5)
    phys = np.round(rng.normal(size=(len(smiles), feat.PHYS_DIM)), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", feat.DuplicateSmiles)
        feat.write_external_phys(d / "phys.csv", smiles, phys)
        for out, extra in (("runs", []), ("runs_phys", ["--phys", str(d / "phys.csv")])):
            assert cli.main(["train", "--data", str(d / "data.csv"),
                             "--tasks", str(d / "tasks.json"), "--qc", str(d / "qc.csv"),
                             "--out", str(d / out), "--epochs", "1", "--seeds", "0",
                             "--hidden", "4", "--ffn-hidden", "4", "--depth", "2",
                             "--batch-size", "16", *extra]) == 0
    return d


# per file kind: the valid file, and the command that reads the file {f}
KINDS = {
    "dataset": ("data.csv", "eval --checkpoint {d}/runs/model_seed0.ckpt --data {f} "
                            "--qc {d}/qc.csv --out {d}/out.csv"),
    "tasks": ("tasks.json", "analyze --history {d}/runs/history_seed0.csv --data {d}/data.csv "
                            "--tasks {f} --out {d}"),
    "qc": ("qc.csv", "predict --checkpoint {d}/runs/model_seed0.ckpt --data {d}/mols.smi "
                     "--qc {f} --out {d}/out.csv"),
    "phys": ("phys.csv", "predict --checkpoint {d}/runs_phys/model_seed0.ckpt "
                         "--data {d}/mols.smi --qc {d}/qc.csv --phys {f} --out {d}/out.csv"),
    "smiles": ("mols.smi", "predict --checkpoint {d}/runs/model_seed0.ckpt --data {f} "
                           "--qc {d}/qc.csv --out {d}/out.csv"),
    "history": ("runs/history_seed0.csv", "analyze --history {f} --data {d}/data.csv "
                                          "--tasks {d}/tasks.json --out {d}"),
}


def run(inputs, kind, path):
    """cli.main on ``path`` as a file of ``kind``: (exit code, stderr, the
    bytes of the CSV it wrote or None)."""
    out = inputs / ("beta_by_scale.csv" if kind in ("tasks", "history") else "out.csv")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", feat.DuplicateSmiles)
        rc = cli.main(KINDS[kind][1].format(d=inputs, f=path).split())
    return rc, err.getvalue(), out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("kind", ["dataset", "qc", "phys", "history"])
def test_byte_order_mark_changes_nothing(inputs, kind):
    valid = inputs / KINDS[kind][0]
    marked = inputs / f"marked_{valid.name}"
    marked.write_bytes(BOM + valid.read_bytes())
    got = run(inputs, kind, marked)
    assert got[0] == 0 and got == run(inputs, kind, valid)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_non_utf8_file_exits_3_naming_file_and_line(inputs, kind):
    raw = (inputs / KINDS[kind][0]).read_bytes()
    at = raw.find(b"\n") + 3  # in the second line, or in the first of a one-line file
    bad = inputs / f"latin_{kind}"
    bad.write_bytes(raw[:at] + b"\xe9" + raw[at:])  # a Latin-1 e-acute
    rc, err, _ = run(inputs, kind, bad)
    assert rc == cli.EXIT_DATA
    line = 2 if b"\n" in raw[:at] else 1
    assert err.splitlines() == [f"error: {bad}:{line}: not UTF-8 at byte {at}"]


class TestMoleculeFile:
    def test_quoted_csv_is_read(self, inputs):
        smiles = (inputs / "mols.smi").read_text().split()[1:]
        quoted = inputs / "quoted.csv"
        quoted.write_text('"smiles","name"\n'
                          + "".join(f'"{s}","mol {i}"\n' for i, s in enumerate(smiles)))
        rc, err, out = run(inputs, "smiles", quoted)
        assert (rc, err) == (0, "")
        assert out == run(inputs, "smiles", inputs / "mols.smi")[2]

    def test_ragged_csv_row_is_refused_by_line(self, inputs):
        ragged = inputs / "ragged.csv"
        ragged.write_text("smiles,name\nCCO,ethanol\n\nCCN\n")
        rc, err, _ = run(inputs, "smiles", ragged)
        assert rc == cli.EXIT_DATA
        assert err.splitlines() == [
            f"error: {ragged}:4: expected 2 fields as in the header, got 1"]


INSERTS = {"nul": b"\x00", "latin1": b"\xe9", "utf16_bom": b"\xff\xfe", "bom": BOM}


@st.composite
def mutated(draw, raw):
    """``raw`` after one to three mutations: a truncation, a flipped byte,
    inserted NUL, non-UTF-8 or byte-order-mark bytes, or a field of a line
    dropped or duplicated."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "flip", "drop", "duplicate", *INSERTS]))
        at = draw(st.integers(0, max(len(raw) - 1, 0)))
        if op == "truncate":
            raw = raw[:at]
        elif op == "flip" and raw:
            raw = raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
        elif op in INSERTS:
            raw = raw[:at] + INSERTS[op] + raw[at:]
        elif op in ("drop", "duplicate"):
            lines = raw.split(b"\n")
            j = draw(st.integers(0, len(lines) - 1))
            cells = lines[j].split(b",")
            k = draw(st.integers(0, len(cells) - 1))
            cells[k:k + 1] = [] if op == "drop" else [cells[k]] * 2
            lines[j] = b",".join(cells)
            raw = b"\n".join(lines)
    return raw


def decode_fault(raw):
    """(line, byte offset) of the first byte that is not UTF-8, or None."""
    skip = len(BOM) if raw.startswith(BOM) else 0
    try:
        raw[skip:].decode("utf-8")
        return None
    except UnicodeDecodeError as err:
        at = skip + err.start
        return len(re.split(rb"\r\n|\r|\n", raw[:at])), at


def first_ragged_row(text):
    """(line, header width, row width) of the first non-blank row whose
    width is not the header's, or None."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    for row in reader:
        if row and len(row) != len(header):
            return reader.line_num, len(header), len(row)
    return None


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_mutation_is_run_or_refused_in_one_line(inputs, kind, data):
    raw = data.draw(mutated((inputs / KINDS[kind][0]).read_bytes()))
    path = inputs / f"mutated_{kind}"
    path.write_bytes(raw)
    rc, err, _ = run(inputs, kind, path)
    assert rc in (0, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) <= 1
    fault = decode_fault(raw)
    if fault:
        line, at = fault
        assert rc == cli.EXIT_DATA
        assert errors == [f"error: {path}:{line}: not UTF-8 at byte {at}"]
    elif errors and "fields as in the header" in errors[0]:
        line, want, got = first_ragged_row(raw.removeprefix(BOM).decode())
        assert errors == [f"error: {path}:{line}: expected {want} fields as in the header, "
                          f"got {got}"]
