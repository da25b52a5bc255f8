"""Multi-task dataset: merged CSV with per-task labels and split tags.

Every row is one (SMILES, task labels) record. A SMILES string appearing
in several tasks stays on separate rows; rows are never merged. Each
labeled cell carries its own train/val/test tag, and a label without a tag
(or a tag without a label) is a hard error, because silent mismatches are
exactly how test labels leak into training.

Split views select rows where any task carries the requested tag; the
per-task validity mask inside batches additionally requires the tag to
match, so a row that is train for task A and test for task B contributes
only its A label to training.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import features as feat
from . import smiles

SPLIT_CODES = {"train": 0, "val": 1, "test": 2}


class DatasetError(ValueError):
    pass


class BadLabelValue(DatasetError):
    pass


class BadSplitTag(DatasetError):
    pass


class MissingColumn(DatasetError):
    pass


class EmptyDataset(DatasetError):
    pass


@dataclass
class TaskSpec:
    name: str
    metric: str  # "AUROC" | "AUPRC"
    label_column: str
    split_column: str

    def __post_init__(self):
        if self.metric not in ("AUROC", "AUPRC"):
            raise DatasetError(f"task {self.name}: metric must be AUROC or AUPRC")


@dataclass
class TaskTable:
    """Loaded dataset. labels: [N x T] with -1 for missing; splits: [N x T]
    with -1 for untagged; fold: [N]."""

    smiles: list
    labels: np.ndarray
    splits: np.ndarray
    fold: np.ndarray
    specs: list
    graphs: list = field(default=None)
    blocks: list = field(default=None)  # raw (unstandardized) FeatureBlocks
    pack: enc.GraphPack = field(default=None)  # the graphs, packed once
    phys_source: str = "builtin"  # set by prepare_table, see features.PHYS_SOURCES

    @property
    def n_rows(self):
        return len(self.smiles)

    @property
    def n_tasks(self):
        return len(self.specs)

    def labeled_counts(self):
        """Per-task count of labeled rows across all splits."""
        return (self.labels >= 0).sum(axis=0)


@dataclass
class Batch:
    """One batch of rows. The heads read ``features`` when it is set and
    the standardized ``feature_blocks`` otherwise; the encoder reads
    ``union`` when it is set and packs ``graphs`` otherwise."""

    graphs: list
    feature_blocks: list
    labels: np.ndarray  # [B x T] of {0, 1}
    valid: np.ndarray  # [B x T] of {0, 1}
    row_indices: np.ndarray
    features: np.ndarray = None  # [B x D] standardized descriptor rows
    union: enc.UnionGraph = None  # the graphs' disjoint union

    @property
    def size(self):
        return len(self.graphs)


def _parse_label(cell, lineno, column):
    cell = cell.strip()
    if cell == "":
        return -1
    if cell in ("0", "1"):
        return int(cell)
    try:
        v = float(cell)
    except ValueError:
        raise BadLabelValue(f"row {lineno}, column {column}: bad label {cell!r}") from None
    if v in (0.0, 1.0):
        return int(v)
    raise BadLabelValue(f"row {lineno}, column {column}: label must be 0 or 1, got {cell!r}")


def load_dataset(path, specs):
    """Load the merged multi-task CSV into a TaskTable."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyDataset(f"{path}: no header row")
        header = set(reader.fieldnames)
        required = {"smiles", "fold"}
        for spec in specs:
            required.add(spec.label_column)
            required.add(spec.split_column)
        missing = required - header
        if missing:
            raise MissingColumn(f"{path}: missing column(s) {sorted(missing)}")

        smiles_col = []
        labels_rows = []
        splits_rows = []
        folds = []
        for lineno, row in enumerate(reader, start=2):
            labels = np.full(len(specs), -1, dtype=np.int64)
            splits = np.full(len(specs), -1, dtype=np.int64)
            for t, spec in enumerate(specs):
                label = _parse_label(row[spec.label_column] or "", lineno, spec.label_column)
                tag = (row[spec.split_column] or "").strip()
                if tag and tag not in SPLIT_CODES:
                    raise BadSplitTag(
                        f"row {lineno}, column {spec.split_column}: bad split tag {tag!r}"
                    )
                if label >= 0 and not tag:
                    raise BadSplitTag(
                        f"row {lineno}: task {spec.name} has a label but no split tag"
                    )
                if label < 0 and tag:
                    raise BadSplitTag(
                        f"row {lineno}: task {spec.name} has split tag {tag!r} but no label"
                    )
                labels[t] = label
                if tag:
                    splits[t] = SPLIT_CODES[tag]
            if (labels < 0).all():
                raise BadLabelValue(f"row {lineno}: every task label is missing")
            try:
                folds.append(int((row["fold"] or "").strip() or 0))
            except ValueError:
                raise BadLabelValue(f"row {lineno}: bad fold value {row['fold']!r}") from None
            smiles_col.append(row["smiles"])
            labels_rows.append(labels)
            splits_rows.append(splits)

    if not smiles_col:
        raise EmptyDataset(f"{path}: no data rows")
    return TaskTable(
        smiles=smiles_col,
        labels=np.stack(labels_rows),
        splits=np.stack(splits_rows),
        fold=np.array(folds, dtype=np.int64),
        specs=list(specs),
    )


def parse_molecules(smiles_list):
    """The parsed graphs of a non-empty list of SMILES."""
    if not smiles_list:
        raise EmptyDataset("no molecules to prepare")
    return [smiles.parse_smiles(s) for s in smiles_list]


def prepare_molecules(smiles_list, phys_path=None, qc_path=None):
    """Parse and featurize SMILES and build their raw descriptor blocks.

    The one preparation path of training, evaluation, prediction and bench;
    analysis, which reads no descriptors, packs ``parse_molecules`` alone.
    Descriptors are the built-in set unless an external 200-dim file is
    given; quantum values come from ``qc_path`` or stay fully masked.
    Returns ``(pack, blocks)``: the graphs featurized into one GraphPack
    (``pack.graphs``, whose arrays are views into it) and one
    unstandardized FeatureBlock per molecule.
    """
    graphs = parse_molecules(smiles_list)
    if phys_path is not None:
        phys = feat.load_external_phys(phys_path, smiles_list)
    else:
        phys = np.stack([feat.builtin_phys_block(g) for g in graphs])
    if qc_path is not None:
        qc, qc_mask = feat.load_qc_descriptors(qc_path, smiles_list)
    else:
        qc = np.zeros((len(smiles_list), feat.QC_DIM))
        qc_mask = np.zeros((len(smiles_list), feat.QC_DIM))
    blocks = [feat.FeatureBlock(phys=phys[i], qc=qc[i], qc_mask=qc_mask[i])
              for i in range(len(smiles_list))]
    return enc.pack_graphs(graphs, featurize=True), blocks


def prepare_table(table, phys_path=None, qc_path=None):
    """Prepare every row's SMILES with ``prepare_molecules`` and attach the
    pack (``table.pack``), the graphs, the raw blocks and the phys source."""
    table.pack, table.blocks = prepare_molecules(table.smiles, phys_path, qc_path)
    table.graphs = table.pack.graphs
    table.phys_source = feat.phys_source(phys_path)
    return table


@dataclass
class SplitView:
    """Read-only row selection for one split tag."""

    table: TaskTable
    split: str
    rows: np.ndarray  # indices into the table
    valid: np.ndarray  # [len(rows) x T]: label present AND tag matches

    def __len__(self):
        return len(self.rows)


def select_split(table, split):
    """Rows where any task carries ``split``; validity is per (row, task)."""
    if split not in SPLIT_CODES:
        raise BadSplitTag(f"unknown split {split!r}")
    code = SPLIT_CODES[split]
    tag_match = table.splits == code
    rows = np.flatnonzero(tag_match.any(axis=1))
    valid = (tag_match[rows] & (table.labels[rows] >= 0)).astype(np.float64)
    return SplitView(table=table, split=split, rows=rows, valid=valid)


def make_batches(view, batch_size, rng, features=None):
    """Shuffled batches over a split view; the trailing partial batch kept.

    ``rng`` is a numpy Generator or an int seed; passing the same seed (or
    a generator in the same state) reproduces the exact batch sequence.
    The order is drawn here and the batches are made as they are iterated,
    so only one batch's gathered arrays are alive at a time. Each batch's
    disjoint union is gathered from the table's pack. ``features`` is the
    table's standardized descriptor matrix [N x D]; batches take their
    rows of it in place of the table's blocks.
    """
    if len(view) == 0:
        raise EmptyDataset(f"split {view.split!r} selects no rows")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    order = rng.permutation(len(view))
    if view.table.pack is None or view.table.blocks is None:
        raise DatasetError("table not prepared; call prepare_table first")
    return (_gather_batch(view, order[start:start + batch_size], features)
            for start in range(0, len(order), batch_size))


def _gather_batch(view, sel, features):
    table = view.table
    rows = view.rows[sel]
    valid = view.valid[sel]
    return Batch(
        graphs=[table.graphs[r] for r in rows],
        feature_blocks=None if features is not None else [table.blocks[r] for r in rows],
        labels=np.where(valid > 0, table.labels[rows], 0).astype(np.float64),
        valid=valid,
        row_indices=rows,
        features=None if features is None else features[rows],
        union=table.pack.gather(rows),
    )


def load_task_specs(path):
    """Task spec file: JSON list of {name, metric, label_column, split_column}."""
    import json

    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise DatasetError(f"{path}: expected a non-empty JSON list of task specs")
    specs = []
    for entry in raw:
        try:
            specs.append(TaskSpec(
                name=entry["name"],
                metric=entry["metric"],
                label_column=entry.get("label_column", entry["name"]),
                split_column=entry.get("split_column", entry["name"] + "_split"),
            ))
        except KeyError as err:
            raise DatasetError(f"{path}: task spec missing key {err}") from None
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise DatasetError(f"{path}: duplicate task names")
    return specs
