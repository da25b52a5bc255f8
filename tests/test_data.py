import re

import numpy as np
import pytest

from mtlmolnet import data as dat
from mtlmolnet.data import (
    BadLabelValue,
    BadSplitTag,
    EmptyDataset,
    MissingColumn,
    TaskSpec,
    load_dataset,
    make_batches,
    prepare_table,
    select_split,
)

SPECS = [
    TaskSpec(name="A", metric="AUROC", label_column="A", split_column="A_split"),
    TaskSpec(name="B", metric="AUPRC", label_column="B", split_column="B_split"),
]

HEADER = "smiles,A,A_split,B,B_split,fold"


def write_csv(tmp_path, rows, header=HEADER):
    p = tmp_path / "data.csv"
    p.write_text("\n".join([header] + rows) + "\n")
    return p


class TestLoad:
    def test_basic(self, tmp_path):
        p = write_csv(tmp_path, [
            "CCO,1,train,,,1",
            "CCN,0,train,1,test,1",
        ])
        table = load_dataset(p, SPECS)
        assert table.n_rows == 2
        assert table.labels[0].tolist() == [1, -1]
        assert table.splits[0].tolist() == [0, -1]
        assert table.labels[1].tolist() == [0, 1]
        assert table.splits[1].tolist() == [0, 2]

    def test_duplicate_smiles_kept_as_rows(self, tmp_path):
        p = write_csv(tmp_path, [
            "CCO,1,train,,,1",
            "CCO,,,0,train,1",
        ])
        table = load_dataset(p, SPECS)
        assert table.n_rows == 2

    def test_bad_label(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,2,train,,,1"])
        with pytest.raises(BadLabelValue):
            load_dataset(p, SPECS)

    def test_error_after_blank_line_names_its_line(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,1,train,,,1", "", "CCN,2,train,,,1"])
        with pytest.raises(BadLabelValue, match=r"data\.csv:4: "):
            load_dataset(p, SPECS)

    @pytest.mark.parametrize("header, rows, message", [
        (HEADER, ["CCO,1,train,,,1", "CCN,0,train,,"],
         ":3: expected 6 fields as in the header, got 5"),
        (HEADER, ["CCO,1,train,,,1", "CCN"], ":3: expected 6 fields as in the header, got 1"),
        (HEADER, ["CCO,1,train,,,1", "CCN,0,train,,,1,1"],
         ":3: expected 6 fields as in the header, got 7"),
        (HEADER + ",A", ["CCO,1,train,,,1,0"],
         ":1: column(s) ['A'] named twice in the header"),
        (HEADER + ",fold,smiles", ["CCO,1,train,,,1,1,CCC"],
         ":1: column(s) ['fold', 'smiles'] named twice in the header"),
    ])
    def test_malformed_row_refused_naming_its_line(self, tmp_path, header, rows, message):
        p = write_csv(tmp_path, rows, header=header)
        with pytest.raises(dat.DatasetError, match=re.escape(f"{p}{message}")):
            load_dataset(p, SPECS)

    def test_unread_column_may_repeat(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,1,train,,,1,x,y"], header=HEADER + ",note,note")
        assert load_dataset(p, SPECS).smiles == ["CCO"]

    def test_bad_split_tag(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,1,holdout,,,1"])
        with pytest.raises(BadSplitTag):
            load_dataset(p, SPECS)

    def test_label_without_split(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,1,,,,1"])
        with pytest.raises(BadSplitTag):
            load_dataset(p, SPECS)

    def test_split_without_label(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,,train,1,train,1"])
        with pytest.raises(BadSplitTag):
            load_dataset(p, SPECS)

    def test_all_labels_missing(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,,,,,1"])
        with pytest.raises(BadLabelValue):
            load_dataset(p, SPECS)

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,1,train,1"], header="smiles,A,A_split,fold")
        with pytest.raises(MissingColumn):
            load_dataset(p, SPECS)

    def test_empty(self, tmp_path):
        p = write_csv(tmp_path, [])
        with pytest.raises(EmptyDataset):
            load_dataset(p, SPECS)

    def test_float_label_forms(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,1.0,train,0.0,val,2"])
        table = load_dataset(p, SPECS)
        assert table.labels[0].tolist() == [1, 0]


class TestSplits:
    def table(self, tmp_path):
        p = write_csv(tmp_path, [
            "CCO,1,train,0,test,1",
            "CCN,0,train,,,1",
            "CCC,,,1,train,1",
            "CCCl,1,val,1,val,1",
            "CCBr,0,test,0,test,1",
        ])
        return load_dataset(p, SPECS)

    def test_mixed_row_masks_other_split(self, tmp_path):
        view = select_split(self.table(tmp_path), "train")
        assert view.rows.tolist() == [0, 1, 2]
        # row 0 is train for A but test for B: B must be masked out
        np.testing.assert_array_equal(view.valid[0], [1.0, 0.0])

    def test_partition_covers_each_labeled_pair_once(self, tmp_path):
        table = self.table(tmp_path)
        covered = np.zeros_like(table.labels, dtype=int)
        for split in ("train", "val", "test"):
            view = select_split(table, split)
            covered[view.rows] += view.valid.astype(int)
        np.testing.assert_array_equal(covered, (table.labels >= 0).astype(int))

    def test_leakage_guard(self, tmp_path):
        table = self.table(tmp_path)
        prepare_table(table)
        view = select_split(table, "train")
        test_tagged = table.splits == dat.SPLIT_CODES["test"]
        for batch in make_batches(view, 2, np.random.default_rng(0)):
            for i, row in enumerate(batch.row_indices):
                for t in range(table.n_tasks):
                    if test_tagged[row, t]:
                        assert batch.valid[i, t] == 0.0


class TestBatches:
    def table(self, tmp_path, n=10):
        rows = [f"{'C' * (i % 3 + 1)}CO,{i % 2},train,1,train,1" for i in range(n)]
        table = load_dataset(write_csv(tmp_path, rows), SPECS)
        return prepare_table(table)

    def test_sizes(self, tmp_path):
        view = select_split(self.table(tmp_path), "train")
        batches = make_batches(view, 4, np.random.default_rng(0))
        assert [b.size for b in batches] == [4, 4, 2]

    def test_same_seed_same_order(self, tmp_path):
        view = select_split(self.table(tmp_path), "train")
        a = make_batches(view, 4, np.random.default_rng(7))
        b = make_batches(view, 4, np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.row_indices, y.row_indices)

    def test_valid_column_sums_conserved(self, tmp_path):
        table = self.table(tmp_path)
        view = select_split(table, "train")
        total = np.zeros(table.n_tasks)
        for batch in make_batches(view, 3, np.random.default_rng(1)):
            total += batch.valid.sum(axis=0)
        np.testing.assert_array_equal(total, view.valid.sum(axis=0))

    def test_invalid_labels_zeroed(self, tmp_path):
        p = write_csv(tmp_path, ["CCO,1,train,1,test,1"])
        table = prepare_table(load_dataset(p, SPECS))
        view = select_split(table, "train")
        (batch,) = make_batches(view, 4, np.random.default_rng(0))
        assert batch.valid[0].tolist() == [1.0, 0.0]
        assert batch.labels[0, 1] == 0.0

    def test_empty_view_raises(self, tmp_path):
        table = self.table(tmp_path)
        view = select_split(table, "test")
        with pytest.raises(EmptyDataset):
            make_batches(view, 4, np.random.default_rng(0))


class TestTaskSpecFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "tasks.json"
        p.write_text(
            '[{"name": "A", "metric": "AUROC", "label_column": "A", '
            '"split_column": "A_split"}, {"name": "B", "metric": "AUPRC"}]'
        )
        specs = dat.load_task_specs(p)
        assert specs[0].name == "A"
        assert specs[1].label_column == "B"
        assert specs[1].split_column == "B_split"

    @pytest.mark.parametrize("text", [
        "{bad", "[1, 2]", '["a"]', '[{"name": 5, "metric": "AUROC"}]',
    ], ids=["not_json", "numbers", "string", "number_name"])
    def test_malformed_file_refused(self, tmp_path, text):
        p = tmp_path / "tasks.json"
        p.write_text(text)
        with pytest.raises(dat.DatasetError, match=re.escape(str(p))):
            dat.load_task_specs(p)

    def test_duplicate_names(self, tmp_path):
        p = tmp_path / "tasks.json"
        p.write_text('[{"name": "A", "metric": "AUROC"}, {"name": "A", "metric": "AUROC"}]')
        with pytest.raises(dat.DatasetError):
            dat.load_task_specs(p)
