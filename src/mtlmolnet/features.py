"""External descriptor record: physicochemical + quantum descriptors + mask.

Molecules' descriptors form one record of three matrices, a row per
molecule: 200 physicochemical slots (a built-in 16-descriptor set
zero-padded, or a full externally computed vector), 4 quantum-chemical
values (dipole moment norm, HOMO-LUMO gap, electron count, total electronic
energy) and a 4-bit availability mask. Quantum values frequently fail to
compute upstream, so missing entries are masked and zero-filled rather
than dropping molecules.

Standardization is a per-dimension z-score with training-split statistics
(population std); masked quantum entries are excluded from the statistics
and stay exactly zero. The mask channels are never standardized.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import smiles, tables
from .tables import DatasetError, MalformedRow

PHYS_DIM = 200
QC_DIM = 4
QC_COLUMNS = ("qc_dipole", "qc_gap", "qc_nelec", "qc_energy")

BUILTIN_DESCRIPTOR_NAMES = (
    "mol_weight",
    "heavy_atoms",
    "ring_bonds",
    "aromatic_atoms",
    "rotatable_bonds",
    "hbond_donors",
    "hbond_acceptors",
    "formal_charge_sum",
    "halogens",
    "heteroatoms",
    "max_degree",
    "mean_degree",
    "fraction_aromatic",
    "nitrogens",
    "components",
    "logp_surrogate",
)

# standard atomic masses; implicit hydrogens contribute 1.008 each
ATOMIC_MASS = {
    "H": 1.008, "B": 10.81, "C": 12.011, "N": 14.007, "O": 15.999,
    "F": 18.998, "Si": 28.085, "P": 30.974, "S": 32.06, "Cl": 35.45,
    "Br": 79.904, "Se": 78.971, "I": 126.904,
}

# per element code, an index into smiles.ELEMENTS
_MASS_OF_ELEMENT = np.array([ATOMIC_MASS.get(e, 0.0) for e in smiles.ELEMENTS])
_IS_HALOGEN = np.array([e in ("F", "Cl", "Br", "I") for e in smiles.ELEMENTS])
_HYDROGEN, _CARBON, _NITROGEN, _OXYGEN = (smiles.ELEMENTS.index(e) for e in "HCNO")


class FeatureFileError(DatasetError):
    pass


class WrongColumnCount(FeatureFileError):
    pass


class MissingMolecule(FeatureFileError):
    pass


class DuplicateSmiles(UserWarning):
    """Warning: a descriptor file lists the same SMILES twice (first wins)."""


@dataclass
class FeatureBlock:
    """The descriptors of N molecules, one row each. ``block[rows]`` selects
    rows, so iterating yields each molecule's row views; a block of 1-D
    arrays is one molecule's descriptors."""

    phys: np.ndarray  # [N x 200]
    qc: np.ndarray  # [N x 4]
    qc_mask: np.ndarray  # [N x 4] of {0, 1}

    def __getitem__(self, rows):
        return FeatureBlock(self.phys[rows], self.qc[rows], self.qc_mask[rows])


def as_record(blocks):
    """``blocks`` as one record: a record as it is, a list of per-molecule
    blocks stacked row by row."""
    if isinstance(blocks, FeatureBlock):
        return blocks
    return FeatureBlock(*(np.stack([getattr(b, name) for b in blocks])
                          for name in ("phys", "qc", "qc_mask")))


# where a phys block comes from: builtin_phys_matrix or a --phys file
PHYS_SOURCES = ("builtin", "external")


def phys_source(phys_path):
    """The PHYS_SOURCES entry for an external descriptor path, or None."""
    return PHYS_SOURCES[phys_path is not None]


@dataclass
class FeatureStats:
    phys_mean: np.ndarray
    phys_std: np.ndarray
    qc_mean: np.ndarray
    qc_std: np.ndarray
    phys_source: str = "builtin"  # the PHYS_SOURCES entry the phys stats were fitted on


def builtin_phys_matrix(codes):
    """[N x PHYS_DIM] built-in descriptor blocks of the molecules of
    ``codes`` (``smiles.GraphCodes``): the 16 descriptors of
    BUILTIN_DESCRIPTOR_NAMES, zero-padded, each summed per molecule with
    one ``np.bincount`` over all atoms or bonds.

    rotatable bond: single, not in a ring, both endpoints bonded to at
    least two atoms. donors: N/O carrying at least one hydrogen;
    acceptors: every N/O. nitrogens: every N atom, of any aromaticity or
    formal charge. N and O are told apart through nitrogens together with
    hbond_acceptors (oxygens = hbond_acceptors - nitrogens), so a head that
    is linear in this block can separate them. heteroatoms also counts S,
    P, Se, B and Si, which hbond_acceptors does not. The logP surrogate is
    the declared linear rule 0.2 * n_carbon - 0.4 * (n_nitrogen + n_oxygen),
    not a fitted model. components is the parser's count of connected
    components.
    """
    n = len(codes.components)
    n_atoms = np.diff(codes.atom_off)
    mol_of_atom = np.repeat(np.arange(n), n_atoms)
    mol_of_bond = np.repeat(np.arange(n), np.diff(codes.bond_off))

    def per_atom(weights):
        return np.bincount(mol_of_atom, weights=weights, minlength=n)

    def per_bond(weights):
        return np.bincount(mol_of_bond, weights=weights, minlength=n)

    element = codes.element
    n_or_o = (element == _NITROGEN) | (element == _OXYGEN)
    # a molecule's weight adds each atom's mass, then its hydrogens', in atom
    # order; bincount adds in index order, so interleaving keeps the sum's bits
    mass_terms = np.stack([_MASS_OF_ELEMENT[element], codes.hydrogens * ATOMIC_MASS["H"]],
                          axis=1)
    weight = np.bincount(np.repeat(mol_of_atom, 2), weights=mass_terms.ravel(), minlength=n)
    degree = codes.degree
    a, b = codes.ends + np.repeat(codes.atom_off[:-1], np.diff(codes.bond_off))
    rotatable = ((codes.order == 0) & (codes.bond_ring == 0)
                 & (degree[a] >= 2) & (degree[b] >= 2))
    aromatic_atoms = per_atom(codes.aromatic)
    acceptors = per_atom(n_or_o)

    out = np.zeros((n, PHYS_DIM))
    out[:, :len(BUILTIN_DESCRIPTOR_NAMES)] = np.stack([
        weight,
        per_atom(element != _HYDROGEN),
        per_bond(codes.bond_ring),
        aromatic_atoms,
        per_bond(rotatable),
        per_atom(n_or_o & (codes.hydrogens >= 1)),
        acceptors,
        per_atom(codes.charge),
        per_atom(_IS_HALOGEN[element]),
        per_atom((element != _CARBON) & (element != _HYDROGEN)),
        np.maximum.reduceat(degree, codes.atom_off[:-1]),
        per_atom(degree) / n_atoms,
        aromatic_atoms / n_atoms,
        per_atom(element == _NITROGEN),
        codes.components,
        0.2 * per_atom(element == _CARBON) - 0.4 * acceptors,
    ], axis=1)
    return out


def builtin_phys_block(g):
    """Built-in descriptors of one parsed graph, zero-padded to the full
    200-dim layout."""
    return builtin_phys_matrix(smiles.graph_codes([g]))[0]


def compute_phys_descriptors(g):
    """Built-in 16-descriptor vector for a parsed graph, in the order of
    BUILTIN_DESCRIPTOR_NAMES; see ``builtin_phys_matrix``."""
    return builtin_phys_block(g)[:len(BUILTIN_DESCRIPTOR_NAMES)]


def _rows_by_smiles(path, rows, parse):
    """``{smiles: parse(line, cells)}`` of the ``(line, [smiles, *cells])`` rows
    of the file ``path``. Every row is parsed; a repeated SMILES warns, first wins."""
    table = {}
    for lineno, (smi, *cells) in rows:
        values = parse(lineno, cells)
        if smi in table:
            warnings.warn(f"{path}:{lineno}: duplicate SMILES {smi!r}, first occurrence wins",
                          DuplicateSmiles)
        else:
            table[smi] = values
    return table


def load_qc_descriptors(path, molecules):
    """Load quantum descriptors for the given SMILES list.

    Returns (qc [N x 4], qc_mask [N x 4]). Molecules absent from the file,
    and empty cells, get mask 0 and value 0; no molecule is ever dropped.
    A cell that is not a finite number is a MalformedRow.
    """
    header, rows = tables.read_csv(path)
    expected = ["smiles", *QC_COLUMNS]
    if header != expected:
        raise MalformedRow(f"{path}: header must be {','.join(expected)}")

    def parse(lineno, cells):
        vals = np.zeros(QC_DIM)
        mask = np.zeros(QC_DIM)
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell:
                vals[j] = tables.number(cell, path, lineno)
                mask[j] = 1.0
        return vals, mask

    table = _rows_by_smiles(path, rows, parse)

    qc = np.zeros((len(molecules), QC_DIM))
    qc_mask = np.zeros((len(molecules), QC_DIM))
    for i, smi in enumerate(molecules):
        if smi in table:
            qc[i], qc_mask[i] = table[smi]
    return qc, qc_mask


def load_external_phys(path, molecules):
    """Load a full 200-dim physicochemical vector per molecule.

    Unlike the quantum block there is no mask channel, so every requested
    molecule must be present: absence is a hard MissingMolecule error, and
    a cell that is not a finite number is a MalformedRow.
    """
    header, rows = tables.read_csv(path)
    if len(header) != PHYS_DIM + 1 or header[0] != "smiles":
        raise WrongColumnCount(
            f"{path}: expected header smiles,d0..d{PHYS_DIM - 1} "
            f"({PHYS_DIM + 1} columns), got {len(header)}"
        )
    table = _rows_by_smiles(path, rows, lambda lineno, cells: np.array(
        [tables.number(c, path, lineno) for c in cells]))

    out = np.zeros((len(molecules), PHYS_DIM))
    for i, smi in enumerate(molecules):
        if smi not in table:
            raise MissingMolecule(f"{path}: no descriptor row for {smi!r}")
        out[i] = table[smi]
    return out


def write_external_phys(path, molecules, matrix):
    """Inverse of load_external_phys; values round-trip via repr."""
    tables.write_csv(path, ["smiles", *(f"d{i}" for i in range(PHYS_DIM))],
                     ([smi, *row] for smi, row in zip(molecules, matrix)))


def fit_stats(blocks, indices=None):
    """Per-dimension mean/std over the training rows ``indices`` (all when
    None) of a record or a list of blocks (population std).

    Quantum dimensions use only unmasked entries; a dimension with no
    observations, or ~zero spread, gets (mean 0, std 1) so standardization
    passes it through untouched.
    """
    if indices is not None:  # pick a list's rows first: its whole stack would add a copy
        blocks = (blocks[indices] if isinstance(blocks, FeatureBlock)
                  else [blocks[i] for i in indices])
    rec = as_record(blocks)
    phys_mean = rec.phys.mean(axis=0)
    phys_std = rec.phys.std(axis=0)
    low = phys_std < 1e-12
    phys_mean[low] = 0.0
    phys_std[low] = 1.0

    qc_mean = np.zeros(QC_DIM)
    qc_std = np.ones(QC_DIM)
    for j in range(QC_DIM):
        seen = rec.qc[rec.qc_mask[:, j] == 1.0, j]
        if seen.size:
            m, s = seen.mean(), seen.std()
            if s >= 1e-12:
                qc_mean[j] = m
                qc_std[j] = s
    return FeatureStats(phys_mean, phys_std, qc_mean, qc_std)


def feature_matrix(blocks, use_qc=True, stats=None):
    """The descriptor columns of the head input, a row per molecule of the
    record or list: [phys | qc | qc_mask], or [phys] when the quantum block
    is ablated. With ``stats`` the phys and qc columns are z-scored and
    masked qc entries stay exactly 0. The one code that standardizes and
    lays out descriptors; ``standardize`` and ``fuse`` are views of it."""
    rec = as_record(blocks)
    if use_qc:
        out = np.concatenate([rec.phys, rec.qc, rec.qc_mask], axis=1)
    else:  # a list's stack is a new record, so its phys is z-scored in place, not copied
        out = rec.phys if rec is not blocks else rec.phys.copy()
    if stats is not None:
        phys = out[:, :PHYS_DIM]
        phys -= stats.phys_mean
        phys /= stats.phys_std
        if use_qc:
            out[:, PHYS_DIM:PHYS_DIM + QC_DIM] = np.where(
                rec.qc_mask == 1.0, (rec.qc - stats.qc_mean) / stats.qc_std, 0.0)
    return out


def standardize(blocks, stats):
    """The z-scored record: views of the columns of ``feature_matrix``."""
    out = feature_matrix(blocks, use_qc=True, stats=stats)
    return FeatureBlock(phys=out[:, :PHYS_DIM], qc=out[:, PHYS_DIM:PHYS_DIM + QC_DIM],
                        qc_mask=out[:, PHYS_DIM + QC_DIM:])


def fuse(z, block, use_qc=True):
    """Concatenate fingerprint and one molecule's block into the head input.

    Layout: [z | phys | qc | qc_mask] (508 dims with H=300), or
    [z | phys] (500) when the quantum block is ablated.
    """
    z = z.z if hasattr(z, "z") else np.asarray(z)
    return np.concatenate([z, feature_matrix([block], use_qc)[0]])
