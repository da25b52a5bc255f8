"""Synthetic molecule and dataset generators shared by the test suite."""

import json

import numpy as np

from mtlmolnet import smiles

HETERO = ["N", "O", "S"]


def random_molecule(rng, min_atoms=3, max_atoms=8):
    """Random branched chain over C/N/O/S with occasional double bonds.

    Always yields a valid SMILES: branches hang off a simple carbon
    backbone and heteroatoms only appear in terminal positions.
    """
    n = int(rng.integers(min_atoms, max_atoms + 1))
    parts = []
    for i in range(n - 1):
        if rng.random() < 0.15 and i < n - 2:
            parts.append("C(" + str(rng.choice(HETERO)) + ")")
        elif rng.random() < 0.1:
            parts.append("C=C" if i < n - 2 else "C")
        else:
            parts.append("C")
    parts.append(str(rng.choice(["C"] + HETERO)))
    return "".join(parts)


def chain_molecule(rng, n_atoms):
    """Linear chain with exactly ``n_atoms`` heavy atoms, mixed elements."""
    body = [str(rng.choice(["C", "C", "C", "N", "O"])) for _ in range(n_atoms - 2)]
    return "C" + "".join(body) + "C"


def label_rules(smi):
    """Structure-derived binary labels, one per rule; linearly separable
    from the built-in descriptors by construction."""
    return {
        "has_n": int("N" in smi),
        "has_o": int("O" in smi),
        "long": int(len(smi.replace("(", "").replace(")", "").replace("=", "")) > 5),
        "has_s": int("S" in smi),
    }


def write_tasks_file(path, names, metric="AUROC"):
    specs = [{"name": n, "metric": metric, "label_column": n,
              "split_column": f"{n}_split"} for n in names]
    path.write_text(json.dumps(specs))
    return path


def write_multitask_csv(path, task_counts, seed=0, val_every=5, test_every=None,
                        min_atoms=3, max_atoms=8):
    """Dataset where task t labels the first ``task_counts[t]`` generated rows.

    Row i of task t is val when i % val_every == 0, test when
    i % test_every == 0 (if given), else train. Returns the task names.
    """
    rng = np.random.default_rng(seed)
    names = [f"task{t}" for t in range(len(task_counts))]
    n_rows = max(task_counts)
    rules = list(label_rules("C"))
    header = ["smiles"]
    for name in names:
        header += [name, f"{name}_split"]
    header.append("fold")

    lines = [",".join(header)]
    for i in range(n_rows):
        smi = random_molecule(rng, min_atoms, max_atoms)
        labels = label_rules(smi)
        cells = [smi]
        any_label = False
        for t, name in enumerate(names):
            if i < task_counts[t]:
                rule = rules[t % len(rules)]
                label = labels[rule]
                if test_every and i % test_every == 0:
                    split = "test"
                elif i % val_every == 1 % val_every:
                    split = "val"
                else:
                    split = "train"
                cells += [str(label), split]
                any_label = True
            else:
                cells += ["", ""]
        if not any_label:
            cells[1:3] = [str(labels[rules[0]]), "train"]
        cells.append(str(i % 5 + 1))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return names


def write_scale_study_csv(path, task_counts, seed=0, noise=0.2, val_every=5):
    """Tasks identical in rule and difficulty, differing only in sample count.

    Every task labels its first ``task_counts[t]`` rows with the same
    structure rule plus independent label noise, isolating the effect of
    data scale on training dynamics: the noise floor keeps per-task losses
    comparable instead of letting any task collapse to zero loss.
    """
    rng = np.random.default_rng(seed)
    names = [f"task{t}" for t in range(len(task_counts))]
    header = ["smiles"]
    for name in names:
        header += [name, f"{name}_split"]
    header.append("fold")
    lines = [",".join(header)]
    for i in range(max(task_counts)):
        smi = random_molecule(rng, 3, 8)
        base = int("N" in smi)
        cells = [smi]
        any_label = False
        for t, name in enumerate(names):
            if i < task_counts[t]:
                label = base if rng.random() > noise else 1 - base
                split = "val" if i % val_every == 1 else "train"
                cells += [str(label), split]
                any_label = True
            else:
                cells += ["", ""]
        if not any_label:
            cells[1:3] = [str(base), "train"]
        cells.append(str(i % 5 + 1))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return names


def write_qc_csv(path, smiles_list, seed=0, success_rate=0.9):
    """Plausible quantum descriptor file with some missing rows/cells."""
    rng = np.random.default_rng(seed)
    lines = ["smiles,qc_dipole,qc_gap,qc_nelec,qc_energy"]
    seen = set()
    for smi in smiles_list:
        if smi in seen:
            continue
        seen.add(smi)
        if rng.random() > success_rate:
            continue
        dipole = abs(rng.normal(1.5, 0.8))
        gap = abs(rng.normal(6.0, 2.0))
        nelec = float(rng.integers(10, 80))
        energy = -abs(rng.normal(150.0, 60.0))
        cells = [f"{dipole:.4f}", f"{gap:.4f}", f"{nelec:.0f}", f"{energy:.4f}"]
        if rng.random() > success_rate:
            cells[int(rng.integers(4))] = ""
        lines.append(smi + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def empty_graph():
    """A MolGraph view of a molecule with no atoms and no bonds, which the
    parser never makes."""
    codes = smiles.GraphCodes(atoms=np.zeros((6, 0), dtype=np.int64),
                              bonds=np.zeros((5, 0), dtype=np.int64),
                              components=np.zeros(1, dtype=np.int64),
                              atom_off=np.zeros(2, dtype=np.int64),
                              bond_off=np.zeros(2, dtype=np.int64))
    return smiles.MolGraph(codes, 0)
