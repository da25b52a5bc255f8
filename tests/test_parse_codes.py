"""``smiles.parse_codes`` against each molecule's own parse, bit for bit.

A list's codes must equal, field by field, the concatenation of the one-row
codes that ``parse_smiles`` gives each of its molecules, and one malformed
SMILES anywhere in the list must raise the parser's own refusal, naming its
1-based position (or the ``path:line`` it is given) and its SMILES.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mtlmolnet import smiles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import molgen  # noqa: E402

FIELDS = ("element", "degree", "charge", "hydrogens", "aromatic", "atom_ring", "order",
          "conjugated", "bond_ring", "components")
MALFORMED = ["C)", "(C", "C1", "CZ", "C==C", "[CH5]", "c1ccn(=O)cc1", "C%1", "[Cq]", "[C+9]",
             "", "Cé"]

molecule_lists = st.builds(
    lambda s, n: [m.smiles for m in molgen.molecules(np.random.default_rng(s), n, 3, 40)],
    st.integers(0, 2**32 - 1), st.integers(1, 25))


def assert_bits(a, b):
    assert a.dtype == b.dtype == np.int64 and a.shape == b.shape
    np.testing.assert_array_equal(a, b)


@seed(20251)
@settings(max_examples=40, deadline=None)
@given(molecule_lists)
def test_list_codes_are_the_molecules_codes_joined(smis):
    codes = smiles.parse_codes(smis)
    own = [smiles.parse_smiles(s).codes for s in smis]
    for name in FIELDS:
        assert_bits(getattr(codes, name), np.concatenate([getattr(c, name) for c in own]))
    assert_bits(codes.ends, np.concatenate([c.ends for c in own], axis=1))
    for name in ("atom_off", "bond_off"):
        counts = [getattr(c, name)[-1] for c in own]
        assert_bits(getattr(codes, name), np.cumsum([0, *counts], dtype=np.int64))


@seed(20252)
@settings(max_examples=40, deadline=None)
@given(molecule_lists, st.sampled_from(MALFORMED), st.integers(0, 25))
def test_a_malformed_molecule_is_refused_by_position(smis, bad, at):
    k = min(at, len(smis)) + 1
    with pytest.raises(smiles.SmilesError) as own:
        smiles.parse_smiles(bad)
    with pytest.raises(type(own.value)) as err:
        smiles.parse_codes(smis[:k - 1] + [bad] + smis[k - 1:])
    assert err.value.offset == own.value.offset
    assert str(err.value) == f"molecule {k} ({bad!r}): {own.value}"


@seed(20253)
@settings(max_examples=40, deadline=None)
@given(molecule_lists, st.sampled_from(MALFORMED), st.integers(0, 25))
def test_a_malformed_molecule_is_refused_by_where_it_stands(smis, bad, at):
    k = min(at, len(smis))
    mols = smis[:k] + [bad] + smis[k:]
    where = [f"requests.csv:{2 * i + 3}" for i in range(len(mols))]
    with pytest.raises(smiles.SmilesError) as own:
        smiles.parse_smiles(bad)
    with pytest.raises(type(own.value)) as err:
        smiles.parse_codes(mols, where)
    assert err.value.offset == own.value.offset
    assert str(err.value) == f"requests.csv:{2 * k + 3}: {bad!r}: {own.value}"
