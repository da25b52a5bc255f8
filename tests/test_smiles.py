import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlmolnet.smiles import (
    ATOM_FEATURE_DIM,
    BOND_FEATURE_DIM,
    MolGraph,
    SmilesError,
    UnbalancedParenthesis,
    UnknownAtomToken,
    UnmatchedRingClosure,
    ValenceViolation,
    _ELEMENTS,
    featurize,
    parse_smiles,
)

# atoms, bonds, branches, ring labels and bracket contents of SMILES
SMILES_TOKENS = ["C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "c", "n", "o", "s",
                 "p", "(", ")", "[", "]", "=", "#", "-", "+", ":", "/", "\\", ".", "@",
                 "H", "1", "2", "3", "%10", "0", "Se", "Si", "Na", "Z"]


class TestParse:
    def test_ethanol(self):
        g = parse_smiles("CCO")
        assert g.n_atoms == 3
        assert g.n_bonds == 2
        assert all(b.order == "single" for b in g.bonds)
        assert [a.explicit_h for a in g.atoms] == [3, 2, 1]

    def test_benzene(self):
        g = parse_smiles("c1ccccc1")
        assert g.n_atoms == 6
        assert g.n_bonds == 6
        assert all(a.aromatic for a in g.atoms)
        assert all(a.in_ring for a in g.atoms)
        assert all(b.order == "aromatic" for b in g.bonds)
        assert all(a.explicit_h == 1 for a in g.atoms)

    def test_acetate(self):
        g = parse_smiles("CC(=O)[O-]")
        assert g.n_atoms == 4
        assert sum(b.order == "double" for b in g.bonds) == 1
        assert [a.formal_charge for a in g.atoms].count(-1) == 1
        charged = next(a for a in g.atoms if a.formal_charge == -1)
        assert charged.element == "O"
        assert charged.explicit_h == 0

    def test_pyridine_vs_pyrrole(self):
        pyridine = parse_smiles("c1ccncc1")
        n = next(a for a in pyridine.atoms if a.element == "N")
        assert n.explicit_h == 0
        pyrrole = parse_smiles("c1cc[nH]c1")
        n = next(a for a in pyrrole.atoms if a.element == "N")
        assert n.explicit_h == 1

    @pytest.mark.parametrize("smi, n_substituted", [
        ("Cn1ccnc1", 1),
        ("c1ccn(C)c1", 1),
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", 3),  # caffeine
    ])
    def test_n_substituted_aromatic_nitrogen(self, smi, n_substituted):
        g = parse_smiles(smi)
        ring_n = [a for a in g.atoms if a.element == "N" and a.aromatic]
        assert all(a.explicit_h == 0 for a in ring_n)
        assert sum(a.degree == 3 for a in ring_n) == n_substituted
        # ring carbons keep their hydrogen; caffeine's c(=O) carbons take none
        for a in g.atoms:
            if a.element == "C" and a.aromatic:
                assert a.explicit_h == (1 if a.degree == 2 else 0), smi

    @pytest.mark.parametrize("smi", ["c1ccn(=O)cc1", "O=n1cccc1"])
    def test_aromatic_n_oxo_still_rejected(self, smi):
        with pytest.raises(ValenceViolation):
            parse_smiles(smi)

    def test_five_membered_heteroaromatics(self):
        for smi in ("c1ccoc1", "c1ccsc1"):
            g = parse_smiles(smi)
            assert all(a.aromatic for a in g.atoms)

    def test_naphthalene_fused(self):
        g = parse_smiles("c1ccc2ccccc2c1")
        assert g.n_atoms == 10
        junctions = [a for a in g.atoms if a.degree == 3]
        assert len(junctions) == 2
        assert all(a.explicit_h == 0 for a in junctions)

    def test_charged_ammonium(self):
        g = parse_smiles("C[N+](C)(C)C")
        n = next(a for a in g.atoms if a.element == "N")
        assert n.formal_charge == 1
        assert n.degree == 4

    def test_bracket_explicit_h_and_charge(self):
        g = parse_smiles("[NH4+]")
        assert g.atoms[0].explicit_h == 4
        assert g.atoms[0].formal_charge == 1
        g = parse_smiles("[O-2]")
        assert g.atoms[0].formal_charge == -2
        g = parse_smiles("[Fe++]")
        assert g.atoms[0].formal_charge == 2
        assert g.atoms[0].element == "Fe"

    def test_isotope_and_stereo_ignored(self):
        g = parse_smiles("[13CH4]")
        assert g.atoms[0].element == "C"
        assert g.atoms[0].explicit_h == 4
        g = parse_smiles("C/C=C\\C")
        assert g.n_atoms == 4
        assert sum(b.order == "double" for b in g.bonds) == 1
        g = parse_smiles("[C@@H](N)(C)O")
        assert g.atoms[0].explicit_h == 1

    def test_triple_bond(self):
        g = parse_smiles("CC#N")
        assert any(b.order == "triple" for b in g.bonds)
        n = next(a for a in g.atoms if a.element == "N")
        assert n.explicit_h == 0

    def test_percent_ring_closure(self):
        a = parse_smiles("C%12CCCCC%12")
        b = parse_smiles("C1CCCCC1")
        assert a.n_bonds == b.n_bonds == 6
        assert all(bond.in_ring for bond in a.bonds)

    def test_ring_bond_order_on_either_side(self):
        g = parse_smiles("C=1CCCCC=1")
        ring_bond = [b for b in g.bonds if {b.a, b.b} == {0, 5}][0]
        assert ring_bond.order == "double"

    def test_multi_fragment(self):
        g = parse_smiles("CCO.CC")
        assert g.n_atoms == 5
        assert g.n_bonds == 3
        adj = {i: set() for i in range(5)}
        for b in g.bonds:
            adj[b.a].add(b.b)
            adj[b.b].add(b.a)
        assert adj[3] == {4}

    def test_biphenyl_link_is_single(self):
        g = parse_smiles("c1ccccc1c1ccccc1")
        link = [b for b in g.bonds if not b.in_ring]
        assert len(link) == 1
        assert link[0].order == "single"

    def test_sulfur_valences(self):
        g = parse_smiles("CS(=O)(=O)C")  # sulfone: valence 6 with 2 H... none
        s = next(a for a in g.atoms if a.element == "S")
        assert s.explicit_h == 0
        g = parse_smiles("CSC")
        s = next(a for a in g.atoms if a.element == "S")
        assert s.explicit_h == 0

    def test_branches(self):
        g = parse_smiles("CC(C)(C)C")
        center = g.atoms[1]
        assert center.degree == 4
        assert center.explicit_h == 0


class TestParseErrors:
    def test_unmatched_ring(self):
        with pytest.raises(UnmatchedRingClosure) as err:
            parse_smiles("C1CC")
        assert err.value.offset == 1

    def test_unbalanced_open(self):
        with pytest.raises(UnbalancedParenthesis):
            parse_smiles("CC(C")

    def test_unbalanced_close(self):
        with pytest.raises(UnbalancedParenthesis) as err:
            parse_smiles("CC)C")
        assert err.value.offset == 2

    def test_unknown_token(self):
        with pytest.raises(UnknownAtomToken) as err:
            parse_smiles("CZC")
        assert err.value.offset == 1

    def test_unknown_organic_subset_element(self):
        # Na outside brackets is N followed by junk
        with pytest.raises(UnknownAtomToken):
            parse_smiles("Na")

    def test_valence_violation(self):
        with pytest.raises(ValenceViolation) as err:
            parse_smiles("CC(C)(C)(C)C")
        assert err.value.offset == 1

    def test_bracket_valence_violation(self):
        with pytest.raises(ValenceViolation):
            parse_smiles("[CH5]")

    def test_dangling_bond(self):
        with pytest.raises(UnknownAtomToken):
            parse_smiles("CC=")

    def test_empty(self):
        with pytest.raises(UnknownAtomToken):
            parse_smiles("")

    def test_unterminated_bracket(self):
        with pytest.raises(UnknownAtomToken):
            parse_smiles("C[NH2")

    @pytest.mark.parametrize("smi, message", [
        ("C[Cq]", "unknown element symbol 'Cq'"), ("C[Xx]", "unknown element symbol 'Xx'"),
        ("C[Q]", "unknown element symbol 'Q'"), ("C[NaH99]", "unparsed bracket content '9'"),
    ])
    def test_bracket_atom_outside_the_element_table(self, smi, message):
        with pytest.raises(UnknownAtomToken, match=message) as err:
            parse_smiles(smi)
        assert err.value.offset == 1

    def test_every_element_symbol_reads_in_brackets(self):
        # the 118 IUPAC symbols, Rh, Th, Bh and Nh (second letter h) included
        assert len(_ELEMENTS) == 118
        for element in sorted(_ELEMENTS):
            assert parse_smiles(f"[{element}]").atoms[0].element == element
        assert parse_smiles("[NaH9]").atoms[0].explicit_h == 9

    @pytest.mark.parametrize("smi, element, hydrogens, charge", [
        ("[ReH9-2]", "Re", 9, -2),  # nonahydridorhenate, the anion of K2ReH9
        ("[AlH4-]", "Al", 4, -1),  # tetrahydroaluminate
        ("[GeH4]", "Ge", 4, 0),  # germane
    ])
    def test_hydrides_outside_the_valence_table_keep_their_hydrogens(
            self, smi, element, hydrogens, charge):
        # elements outside VALENCES take the written hydrogen count unaudited;
        # a cap on it would refuse real species such as these
        atom = parse_smiles(smi).atoms[0]
        assert (atom.element, atom.explicit_h, atom.formal_charge) == (element, hydrogens, charge)

    @pytest.mark.parametrize("smi, offset", [("C1C1", 3), ("C12CC12", 6)])
    def test_duplicate_bond_names_its_offset(self, smi, offset):
        with pytest.raises(UnmatchedRingClosure, match="duplicate bond") as err:
            parse_smiles(smi)
        assert err.value.offset == offset

    def test_conflicting_ring_orders(self):
        with pytest.raises(UnmatchedRingClosure):
            parse_smiles("C=1CCCCC#1")

    def test_hypervalent_bracket_allowed_when_hypovalent(self):
        g = parse_smiles("[CH2]")  # carbene-like radicals accepted
        assert g.atoms[0].explicit_h == 2

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(SMILES_TOKENS), min_size=1, max_size=24).map("".join))
    def test_random_strings_fail_only_with_offset_inside(self, s):
        try:
            featurize(parse_smiles(s))
        except SmilesError as err:
            assert 0 <= err.offset < len(s)


class TestGraphInvariants:
    def test_reverse_edge_involution(self):
        g = parse_smiles("CC(=O)Nc1ccc(O)cc1")
        rev = g.directed_edges[:, 3]
        assert np.array_equal(rev[rev], np.arange(len(rev)))
        for e in g.directed_edges:
            r = g.directed_edges[e[3]]
            assert r[0] == e[1] and r[1] == e[0] and r[2] == e[2]

    def test_degree_matches_incident_bonds(self):
        g = parse_smiles("CC(=O)Nc1ccc(O)cc1")
        counts = np.zeros(g.n_atoms, dtype=int)
        for b in g.bonds:
            counts[b.a] += 1
            counts[b.b] += 1
        assert [a.degree for a in g.atoms] == counts.tolist()

    def test_bond_pairs_unique(self):
        g = parse_smiles("C1CC2CCC1CC2")
        pairs = {frozenset((b.a, b.b)) for b in g.bonds}
        assert len(pairs) == g.n_bonds

    # explicit relabelings: (smiles_a, smiles_b, permutation p with
    # atom i of graph a corresponding to atom p[i] of graph b)
    RELABELINGS = [
        ("CCO", "OCC", [2, 1, 0]),
        ("CCN", "NCC", [2, 1, 0]),
        ("CCCl", "ClCC", [2, 1, 0]),
        ("CC=O", "O=CC", [2, 1, 0]),
        ("CC#N", "N#CC", [2, 1, 0]),
        ("CCOC", "COCC", [3, 2, 1, 0]),
        ("CC(C)C", "C(C)(C)C", [1, 0, 2, 3]),
        ("OCC(O)CO", "C(O)C(CO)O", [1, 0, 2, 5, 3, 4]),
        ("CC(=O)O", "OC(C)=O", [2, 1, 3, 0]),
        ("FC(F)F", "C(F)(F)F", [1, 0, 2, 3]),
        ("c1ccccc1O", "Oc1ccccc1", [6, 5, 4, 3, 2, 1, 0]),
        ("CCSC", "CSCC", [3, 2, 1, 0]),
    ]

    @pytest.mark.parametrize("sa,sb,perm", RELABELINGS)
    def test_relabeling_invariance(self, sa, sb, perm):
        ga = parse_smiles(sa)
        gb = parse_smiles(sb)
        assert ga.n_atoms == gb.n_atoms
        assert ga.n_bonds == gb.n_bonds
        for i, atom in enumerate(ga.atoms):
            other = gb.atoms[perm[i]]
            assert atom.element == other.element
            assert atom.formal_charge == other.formal_charge
            assert atom.explicit_h == other.explicit_h
            assert atom.aromatic == other.aromatic
            assert atom.in_ring == other.in_ring
            assert atom.degree == other.degree
        bonds_b = {frozenset((b.a, b.b)): b.order for b in gb.bonds}
        for b in ga.bonds:
            key = frozenset((perm[b.a], perm[b.b]))
            assert bonds_b[key] == b.order

    def test_valence_audit(self):
        # every successfully parsed atom sits at a permitted valence,
        # with the documented one-bond slack for aromatic systems
        from mtlmolnet.smiles import VALENCES

        order_value = {"single": 1, "double": 2, "triple": 3, "aromatic": 1.5}
        for smi in ["CCO", "c1ccccc1", "CC(=O)[O-]", "c1cc[nH]c1", "c1ccoc1",
                    "CS(=O)(=O)O", "C[N+](C)(C)C", "c1ccc2ccccc2c1", "Cn1ccnc1",
                    "Cn1cnc2c1c(=O)n(C)c(=O)n2C"]:
            g = parse_smiles(smi)
            for idx, atom in enumerate(g.atoms):
                orders = [b.order for b in g.bonds if idx in (b.a, b.b)]
                total = sum(order_value[o] for o in orders) + atom.explicit_h
                q = atom.formal_charge
                allowed = VALENCES[atom.element]
                if atom.element in ("C", "Si"):
                    allowed = tuple(v - abs(q) for v in allowed)
                elif atom.element not in ("B", "H"):
                    allowed = tuple(v + q for v in allowed)
                if any(o == "aromatic" for o in orders):
                    # aromatic bonds counted as single; the delocalized
                    # system may add at most one Kekule double bond
                    unit = sum(1 if o == "aromatic" else order_value[o]
                               for o in orders) + atom.explicit_h
                    assert unit in allowed or unit + 1 in allowed, (smi, idx)
                else:
                    assert total in allowed, (smi, idx)


class TestFeaturize:
    def test_shapes(self):
        g = featurize(parse_smiles("CC(=O)Nc1ccc(O)cc1"))
        assert g.atom_features.shape == (g.n_atoms, ATOM_FEATURE_DIM)
        assert g.bond_features.shape == (g.n_bonds, BOND_FEATURE_DIM)
        assert np.isfinite(g.atom_features).all()

    def test_methane(self):
        g = featurize(parse_smiles("C"))
        row = g.atom_features[0]
        # degree block starts after the 14-wide element block
        assert row[14 + 0] == 1.0
        # explicit_h block: element(14) + degree(6) + charge(6), index 4 = 4 H
        assert row[26 + 4] == 1.0

    def test_benzene_flags(self):
        g = featurize(parse_smiles("c1ccccc1"))
        assert np.all(g.atom_features[:, 31] == 1.0)  # aromatic flag
        assert np.all(g.atom_features[:, 32] == 1.0)  # ring flag
        assert np.all(g.bond_features[:, 3] == 1.0)  # aromatic order slot

    def test_one_hot_blocks_sum_to_one(self):
        for smi in ["CCO", "c1ccccc1", "CC(=O)[O-]", "C[N+](C)(C)C", "[Fe++]"]:
            g = featurize(parse_smiles(smi))
            blocks = [(0, 14), (14, 20), (20, 26), (26, 31)]
            for lo, hi in blocks:
                sums = g.atom_features[:, lo:hi].sum(axis=1)
                np.testing.assert_array_equal(sums, np.ones(g.n_atoms))

    def test_unsupported_element_other_slot(self):
        g = featurize(parse_smiles("[Fe++]"))
        assert g.atom_features[0, 13] == 1.0  # trailing element slot

    def test_charge_one_hot(self):
        g = featurize(parse_smiles("CC(=O)[O-]"))
        charged = [a.formal_charge for a in g.atoms].index(-1)
        assert g.atom_features[charged, 20 + 1] == 1.0  # -1 slot
