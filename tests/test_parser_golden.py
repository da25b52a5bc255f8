"""Golden hashes of the SMILES parser's output and of its refusals.

One sha256 covers every parsed atom field, bond field and directed edge
over a seeded pool of benchmark molecules (``perfbench/molgen.py``, 3,000
molecules of 3-40 heavy atoms) plus hand-picked edge cases. A second covers
the (exception type, offset, message) of a seeded corpus of malformed
strings, including strings with two faults each, so that which fault is
reported first is pinned too. Any change to what the parser returns or
refuses changes a hash; the pool depends on molgen's fragment table.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from mtlmolnet.smiles import SmilesError, parse_smiles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import molgen  # noqa: E402

EDGE_CASES = [
    "C", "O", "C.C", "C1.C1", "[Na+].[Cl-]", "CCO.CC", "[Fe++]", "[As]", "[Se]", "B",
    "[Si]", "[SiH4]", "[PH5]", "[SH6]", "[N-3]", "[C+4]", "[O-2]", "[13CH4]", "[NH4+]",
    "C%12CCCCC%12", "C%10CC%11CC%10CC%11", "c1ccccc1c1ccccc1", "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "C/C=C\\C", "[C@@H](N)(C)O", "CC#N", "C=1CCCCC=1", "c1cc[nH]c1", "c1ccoc1",
    "CS(=O)(=O)O", "C[N+](C)(C)C", "c1ccc2ccccc2c1", "OC(=O)C=CC=O", "C=CC=C",
    "[se]1cccc1", "[as]1cccc1", "b1ccccc1", "C1CC2.C12", "C1.C2.C12", "CC1.C1C",
    "[Cu+2].[O-]S(=O)(=O)[O-]", "[Xe]", "[CH2]", "c1ccccc1:c1ccccc1", "c1ccccc1-c1ccccc1",
    "C1CC2.C1C2", "C1.C2.C3.C123", "C1CCC2CC1.C2=O", "c1cc2.c1cc2",
]

# single faults, joined in pairs below
FAULTS = ["C)", "(C", "C1", "CZ", "C==C", "C[C", "C%1", "C1C1", "CC(C)(C)(C)C", "[CH5]",
          "C:C", "CC=", "n1cccc1=O", "C=1CCC#1", ".", "C..C", "[13]", "[Cq]", "[C+9]",
          "C(=)C", "1C", "c1ccn(=O)cc1", "[C:a]", "C=.C", "Cé", "", "C12CC12"]

TOKENS = ["C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "c", "n", "o", "s", "p",
          "(", ")", "[", "]", "=", "#", "-", "+", ":", "/", "\\", ".", "@", "H", "1", "2",
          "3", "%10", "%1", "0", "Se", "Si", "Na", "Z", "[nH]", "[O-]", "[NH3+]", "4"]


def canonical(g):
    return [
        [[a.element, a.formal_charge, a.explicit_h, a.aromatic, a.in_ring, a.degree]
         for a in g.atoms],
        [[b.a, b.b, b.order, b.conjugated, b.in_ring] for b in g.bonds],
        np.asarray(g.directed_edges).tolist(),
    ]


def outcome(s):
    try:
        return ["ok", canonical(parse_smiles(s))]
    except SmilesError as err:
        return [type(err).__name__, err.offset, str(err)]


def digest(items):
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def test_parsed_fields_golden():
    pool = [m.smiles for m in molgen.molecules(np.random.default_rng(2024), 3000, 3, 40)]
    dumps = [canonical(parse_smiles(s)) for s in pool + EDGE_CASES]
    assert digest(dumps) == "794c9b44c16c308252bd56fd4ebc47003a4fff2afa1f4eb73469e9a877811f4d"


def test_refusals_golden():
    rng = np.random.default_rng(7)
    corpus = ["".join(rng.choice(TOKENS, size=int(rng.integers(1, 16))))
              for _ in range(4000)]
    corpus += [a + b for a in FAULTS for b in FAULTS]
    corpus += [a + "CC" + b for a in FAULTS for b in FAULTS]
    outcomes = [outcome(s) for s in corpus]
    refused = sum(o[0] != "ok" for o in outcomes)
    assert refused > len(corpus) // 2
    assert digest(outcomes) == "0befaed278a0b61cc8b81dccff2106f5aad2bae91b428772e6eb7f32a4655b12"
