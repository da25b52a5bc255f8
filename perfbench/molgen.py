"""Seeded SMILES generator and dataset writers for the benchmark.

Molecules are assembled from fragments whose heavy-atom counts are known,
so every molecule has exactly the heavy-atom count drawn for it. Fragments
cover rings (benzene, pyridine, thiophene, furan, pyrrole, cyclohexane,
piperidine), aromatic atoms, branches, halogens and charged bracket atoms.
Labels come from structural rules over the fragments used, never from
parsing the SMILES, so the benchmark's inputs do not depend on the parser
under test.

``DECLARED_AROMATIC_N`` is an N-substituted aromatic nitrogen fragment
(an N-linked imidazole, as in ``Cn1ccnc1``). It is valid SMILES. The
generator only emits it when asked to, so a caller knows exactly which
molecules carry it.
"""

import numpy as np

# (smiles, heavy atoms, structural tags); every fragment is a chain member
# whose first atom bonds to the previous fragment and whose last
# non-branch atom bonds to the next one
FRAGMENTS = (
    ("C", 1, ()),
    ("C", 1, ()),
    ("C", 1, ()),
    ("N", 1, ("nitrogen",)),
    ("O", 1, ("oxygen",)),
    ("S", 1, ("sulfur",)),
    ("C=C", 2, ("alkene",)),
    ("C(C)", 2, ("branch",)),
    ("C(F)", 2, ("branch", "halogen", "fluorine")),
    ("C(Cl)", 2, ("branch", "halogen", "heavy_halogen")),
    ("C(Br)", 2, ("branch", "halogen", "heavy_halogen")),
    ("C(=O)", 2, ("carbonyl", "oxygen")),
    ("C(O)", 2, ("branch", "hydroxyl", "oxygen")),
    ("C([NH3+])", 2, ("branch", "charged", "nitrogen")),
    ("C(C(=O)[O-])", 4, ("branch", "charged", "carbonyl", "oxygen")),
    ("C([N+](=O)[O-])", 4, ("branch", "charged", "nitrogen", "oxygen")),
    ("C1CC1", 3, ("ring", "saturated_ring")),
    ("c1ccc(cc1)", 6, ("ring", "aromatic")),
    ("c1ccc(nc1)", 6, ("ring", "aromatic", "heteroaromatic", "nitrogen")),
    ("c1ccc(s1)", 5, ("ring", "aromatic", "heteroaromatic", "sulfur")),
    ("c1ccc(o1)", 5, ("ring", "aromatic", "heteroaromatic", "oxygen")),
    ("c1ccc([nH]1)", 5, ("ring", "aromatic", "heteroaromatic", "nitrogen")),
    ("C1CCC(CC1)", 6, ("ring", "saturated_ring")),
    ("C1CCN(CC1)", 6, ("ring", "saturated_ring", "nitrogen")),
)

DECLARED_AROMATIC_N = ("C(n1ccnc1)", 6, ("ring", "aromatic", "heteroaromatic",
                                         "nitrogen", "aromatic_n_substituted"))

# structural rules behind the paper workload's 13 tasks, from the task with
# the most labels to the one with the fewest; the rules that the built-in
# descriptors expose directly go to the smallest tasks, so that their
# few validation labels still give a steady AUROC
PAPER_RULES = (
    "sulfur", "alkene", "hydroxyl", "carbonyl", "heavy_halogen",
    "heteroaromatic", "nitrogen", "saturated_ring", "aromatic", "halogen",
    "charged", "two_rings", "large",
)

QC_COLUMNS = ("qc_dipole", "qc_gap", "qc_nelec", "qc_energy")


class Molecule:
    __slots__ = ("smiles", "n_atoms", "tags")

    def __init__(self, smiles, n_atoms, tags):
        self.smiles = smiles
        self.n_atoms = n_atoms
        self.tags = tags

    def rule(self, name):
        if name == "two_rings":
            return int(self.tags.get("ring", 0) >= 2)
        if name == "large":
            return int(self.n_atoms >= 24)
        return int(self.tags.get(name, 0) > 0)


def molecule(rng, min_atoms, max_atoms, declared=False):
    """One molecule with a heavy-atom count drawn from [min_atoms, max_atoms].

    With ``declared`` the molecule carries exactly one DECLARED_AROMATIC_N
    fragment (the range must leave room for its 6 atoms).
    """
    target = int(rng.integers(min_atoms, max_atoms + 1))
    parts, tags, count = [], {}, 0

    def add(frag):
        nonlocal count
        parts.append(frag[0])
        count += frag[1]
        for tag in frag[2]:
            tags[tag] = tags.get(tag, 0) + 1

    if declared:
        if target < DECLARED_AROMATIC_N[1]:
            raise ValueError("size range too small for the declared fragment")
        slot = int(rng.integers(0, target - DECLARED_AROMATIC_N[1] + 1))
    while count < target:
        if declared and count >= slot and "aromatic_n_substituted" not in tags:
            add(DECLARED_AROMATIC_N)
            continue
        room = target - count
        if declared and "aromatic_n_substituted" not in tags:
            room -= DECLARED_AROMATIC_N[1]
        choices = [f for f in FRAGMENTS if f[1] <= room]
        add(choices[int(rng.integers(len(choices)))])
    return Molecule("".join(parts), count, tags)


def molecules(rng, n, min_atoms, max_atoms):
    return [molecule(rng, min_atoms, max_atoms) for _ in range(n)]


def _labeled_rows(rng, n_rows, counts):
    """[n_rows x T] bool: task t labels exactly counts[t] rows, chosen at
    random; every row keeps at least one label (task 0 labels all rows)."""
    if counts[0] != n_rows:
        raise ValueError("task 0 must label every row")
    mask = np.zeros((n_rows, len(counts)), dtype=bool)
    for t, c in enumerate(counts):
        mask[rng.permutation(n_rows)[:c], t] = True
    return mask


def write_dataset(path, mols, counts, rule_of_task, rng, noise=0.0, val_every=5):
    """Merged multi-task CSV. Row i is val when i % val_every == 1, else train.

    Task t takes its label from rule ``rule_of_task[t]``; with ``noise`` each
    label flips independently with that probability.
    """
    n_rows = len(mols)
    labeled = _labeled_rows(rng, n_rows, counts)
    names = [f"task{t}" for t in range(len(counts))]
    header = ["smiles"]
    for name in names:
        header += [name, f"{name}_split"]
    header.append("fold")
    lines = [",".join(header)]
    for i, mol in enumerate(mols):
        split = "val" if i % val_every == 1 else "train"
        cells = [mol.smiles]
        for t in range(len(names)):
            if labeled[i, t]:
                label = mol.rule(rule_of_task[t])
                if noise and rng.random() < noise:
                    label = 1 - label
                cells += [str(label), split]
            else:
                cells += ["", ""]
        cells.append(str(i % 5 + 1))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return names


def write_tasks(path, names):
    import json

    with open(path, "w") as fh:
        json.dump([{"name": n, "metric": "AUROC", "label_column": n,
                    "split_column": f"{n}_split"} for n in names], fh)


def qc_values(rng, mols, missing_rows=0.1, missing_cells=0.1):
    """Quantum descriptors per molecule: {smiles: [4 values or None]}.

    Values follow the structure (size, charge) plus noise; a share of
    molecules has no row at all and a share of rows has one empty cell.
    """
    out = {}
    for mol in mols:
        if mol.smiles in out or rng.random() < missing_rows:
            continue
        vals = [
            abs(rng.normal(1.0 + 2.0 * mol.rule("charged"), 0.5)),
            abs(rng.normal(8.0 - 0.1 * mol.n_atoms, 1.0)),
            float(6 * mol.n_atoms + int(rng.integers(0, 6))),
            -(38.0 * mol.n_atoms + abs(rng.normal(0.0, 5.0))),
        ]
        if rng.random() < missing_cells:
            vals[int(rng.integers(4))] = None
        out[mol.smiles] = vals
    return out


def write_qc(path, table):
    lines = ["smiles," + ",".join(QC_COLUMNS)]
    for smi, vals in table.items():
        lines.append(smi + "," + ",".join("" if v is None else repr(v) for v in vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
