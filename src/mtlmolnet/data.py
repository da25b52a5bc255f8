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

import json
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import features as feat
from . import smiles, tables
from .tables import DatasetError, EmptyDataset

SPLIT_CODES = {"train": 0, "val": 1, "test": 2}


class BadLabelValue(DatasetError):
    pass


class BadSplitTag(DatasetError):
    pass


class MissingColumn(DatasetError):
    pass


@dataclass
class TaskSpec:
    name: str
    metric: str  # "AUROC" | "AUPRC"
    label_column: str
    split_column: str

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.name, self.label_column,
                                                 self.split_column)):
            raise DatasetError(f"task {self.name!r}: name and columns must be strings")
        if self.metric not in ("AUROC", "AUPRC"):
            raise DatasetError(f"task {self.name}: metric must be AUROC or AUPRC")


@dataclass
class TaskTable:
    """Loaded dataset. labels: [N x T] with -1 for missing; splits: [N x T]
    with -1 for untagged; fold: [N]. ``prepare_table`` attaches the pack
    and ``blocks``, the descriptor record whose row i is table row i's."""

    smiles: list
    labels: np.ndarray
    splits: np.ndarray
    fold: np.ndarray
    specs: list
    blocks: feat.FeatureBlock = field(default=None)  # raw (unstandardized)
    pack: enc.GraphPack = field(default=None)  # the parsed molecules, packed once
    where: list = field(default=None)  # each row's "path:line", named in refusals
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
    the standardized record (or block list) ``feature_blocks`` otherwise;
    the encoder reads ``union`` when it is set and packs ``graphs``
    otherwise."""

    graphs: list
    feature_blocks: feat.FeatureBlock
    labels: np.ndarray  # [B x T] of {0, 1}
    valid: np.ndarray  # [B x T] of {0, 1}
    row_indices: np.ndarray
    features: np.ndarray = None  # [B x D] standardized descriptor rows
    union: enc.UnionGraph = None  # the graphs' disjoint union

    @property
    def size(self):
        return len(self.graphs)


def _parse_label(cell, where, column):
    cell = cell.strip()
    if cell == "":
        return -1
    if cell in ("0", "1"):
        return int(cell)
    try:
        v = float(cell)
    except ValueError:
        raise BadLabelValue(f"{where}: column {column}: bad label {cell!r}") from None
    if v in (0.0, 1.0):
        return int(v)
    raise BadLabelValue(f"{where}: column {column}: label must be 0 or 1, got {cell!r}")


def load_dataset(path, specs):
    """Load the merged multi-task CSV into a TaskTable; a header naming a
    read column twice, or a row of another width, is refused by line."""
    header, rows = tables.read_csv(path)
    required = {"smiles", "fold", *(c for s in specs for c in (s.label_column, s.split_column))}
    missing = required - set(header)
    if missing:
        raise MissingColumn(f"{path}: missing column(s) {sorted(missing)}")
    twice = sorted(c for c in required if header.count(c) > 1)
    if twice:
        raise DatasetError(f"{path}:1: column(s) {twice} named twice in the header")

    smiles_col, labels_rows, splits_rows, folds, wheres = [], [], [], [], []
    for lineno, fields in rows:
        where = f"{path}:{lineno}"
        row = dict(zip(header, fields))
        labels = np.full(len(specs), -1, dtype=np.int64)
        splits = np.full(len(specs), -1, dtype=np.int64)
        for t, spec in enumerate(specs):
            label = _parse_label(row[spec.label_column], where, spec.label_column)
            tag = row[spec.split_column].strip()
            if tag and tag not in SPLIT_CODES:
                raise BadSplitTag(f"{where}: column {spec.split_column}: bad split tag {tag!r}")
            if label >= 0 and not tag:
                raise BadSplitTag(f"{where}: task {spec.name} has a label but no split tag")
            if label < 0 and tag:
                raise BadSplitTag(f"{where}: task {spec.name} has split tag {tag!r} but no label")
            labels[t] = label
            if tag:
                splits[t] = SPLIT_CODES[tag]
        if (labels < 0).all():
            raise BadLabelValue(f"{where}: every task label is missing")
        try:
            folds.append(int(row["fold"].strip() or 0))
        except ValueError:
            raise BadLabelValue(f"{where}: bad fold value {row['fold']!r}") from None
        smiles_col.append(row["smiles"])
        labels_rows.append(labels)
        splits_rows.append(splits)
        wheres.append(where)

    if not smiles_col:
        raise EmptyDataset(f"{path}: no data rows")
    return TaskTable(
        smiles=smiles_col,
        labels=np.stack(labels_rows),
        splits=np.stack(splits_rows),
        fold=np.array(folds, dtype=np.int64),
        specs=list(specs),
        where=wheres,
    )


def prepare_molecules(smiles_list, phys_path=None, qc_path=None, where=None):
    """Parse SMILES, pack them, and build their raw descriptor record.

    The one preparation path of training, evaluation, prediction and bench;
    analysis, which reads no descriptors, packs ``smiles.parse_codes``
    alone. Only parsing runs per molecule: ``smiles.parse_codes`` appends
    each molecule's codes to list-wide columns, ``enc.pack_codes`` fills
    the features for the whole pack at once, and the built-in descriptors
    are computed from the same codes. Descriptors are the built-in set
    unless an external 200-dim file is given; quantum values come from
    ``qc_path`` or stay fully masked. Returns ``(pack, record)``: the
    GraphPack of the molecules (``pack.graphs`` views its rows) and the
    unstandardized FeatureBlock of their descriptors, a row per molecule.
    A refusal names the SMILES and ``where[i]``, else its 1-based position.
    """
    if not smiles_list:
        raise EmptyDataset("no molecules to prepare")
    pack = enc.pack_codes(smiles.parse_codes(smiles_list, where))
    if phys_path is not None:
        phys = feat.load_external_phys(phys_path, smiles_list)
    else:
        phys = feat.builtin_phys_matrix(pack.codes)
    if qc_path is not None:
        qc, qc_mask = feat.load_qc_descriptors(qc_path, smiles_list)
    else:
        qc, qc_mask = np.zeros((2, len(smiles_list), feat.QC_DIM))
    return pack, feat.FeatureBlock(phys=phys, qc=qc, qc_mask=qc_mask)


def prepare_table(table, phys_path=None, qc_path=None):
    """Prepare every row's SMILES with ``prepare_molecules`` and attach the
    pack (``table.pack``, whose ``graphs`` view its rows), the raw
    descriptor record and the phys source."""
    table.pack, table.blocks = prepare_molecules(table.smiles, phys_path, qc_path, table.where)
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

    ``rng`` is a numpy Generator; one in the same state reproduces the
    exact batch sequence.
    The order is drawn here and the batches are made as they are iterated,
    so only one batch's gathered arrays are alive at a time. Each batch's
    disjoint union is gathered from the table's pack. ``features`` is the
    table's standardized descriptor matrix [N x D]; batches take their
    rows of it in place of their rows of the table's descriptor record.
    """
    if len(view) == 0:
        raise EmptyDataset(f"split {view.split!r} selects no rows")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
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
        graphs=[table.pack.graphs[r] for r in rows],
        feature_blocks=None if features is not None else table.blocks[rows],
        labels=np.where(valid > 0, table.labels[rows], 0).astype(np.float64),
        valid=valid,
        row_indices=rows,
        features=None if features is None else features[rows],
        union=table.pack.gather(rows),
    )


def parse_task_specs(records):
    """The TaskSpecs of task-spec records, a task file's or a manifest's: JSON
    objects with a ``name`` and a ``metric``, whose ``label_column`` defaults
    to the name and ``split_column`` to ``<name>_split``; names are unique."""
    specs = []
    for entry in records:
        if not isinstance(entry, dict):
            raise DatasetError(f"task spec {entry!r} is not a JSON object")
        try:
            specs.append(TaskSpec(
                name=entry["name"],
                metric=entry["metric"],
                label_column=entry.get("label_column", entry["name"]),
                split_column=entry.get("split_column", f"{entry['name']}_split"),
            ))
        except KeyError as err:
            raise DatasetError(f"task spec missing key {err}") from None
    names = [s.name for s in specs]
    twice = sorted({n for n in names if names.count(n) > 1})
    if twice:
        raise DatasetError(f"duplicate task names: {', '.join(twice)}")
    return specs


def load_task_specs(path):
    """The TaskSpecs of a task spec file: a non-empty JSON list of records."""
    text = tables.read_text(path)
    try:
        raw = json.loads(text)
        if not isinstance(raw, list) or not raw:
            raise DatasetError("expected a non-empty JSON list of task specs")
        return parse_task_specs(raw)
    except json.JSONDecodeError as err:
        raise DatasetError(f"{path}: task spec file is not valid JSON ({err})") from None
    except DatasetError as err:
        raise DatasetError(f"{path}: {err}") from None
