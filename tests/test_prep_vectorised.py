"""The pack-level fill against the per-graph oracles, bit for bit.

``pack_graphs`` reads a whole list of graphs into integer codes once and
fills features and built-in descriptors with numpy, and
``GraphPack.gather`` derives the directed edges from the bond ends;
``tests/oracles.py`` loops over one graph's atoms and bonds at a time. Every
float must have the same bits (compared as int64 views), over a seeded pool
of benchmark molecules and the edge cases the fill has to get right.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from mtlmolnet import data as dat
from mtlmolnet import features as feat
from mtlmolnet import smiles
from mtlmolnet.encoder import pack_graphs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import molgen  # noqa: E402

EDGE_CASES = [
    "C", "O",  # no bonds
    "C.C", "C1.C1", "[Na+].[Cl-]", "C1CC2.C1C2", "CCO.CC",  # fragments
    "[Fe++]", "[As]", "[Xe]", "[Cu+2].[O-]S(=O)(=O)[O-]",  # the "other" element slot
    "[Se]", "B", "[Si]", "[se]1cccc1", "b1ccccc1", "[H][H]", "[2H]C",
    "[N-3]", "[C+4]", "[Fe+3]", "[O-2]", "[NH4+]",  # charges outside and inside -2..+2
    "[PH5]", "[SH6]", "[SiH4]",  # more than 4 hydrogens
    "S(F)(F)(F)(F)(F)F", "C(C)(C)(C)C",  # degree 6 and 4
    "c1ccccc1-c1ccccc1", "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "C=CC=C", "CC#N", "OC(=O)C=CC=O",
]


def pool():
    rng = np.random.default_rng(11)
    return [m.smiles for m in molgen.molecules(rng, 2000, 3, 40)] + EDGE_CASES


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype == np.float64:
        a, b = a.view(np.int64), b.view(np.int64)
    np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def prepared():
    smis = pool()
    return smis, dat.prepare_molecules(smis)


def test_pack_features_and_edges_match_oracle(prepared):
    smis, (pack, _) = prepared
    graphs = [smiles.parse_smiles(s) for s in smis]
    ref = [oracles.features(g) for g in graphs]
    assert_bits(pack.atom_features, np.concatenate([af for af, _ in ref]))
    assert_bits(pack.bond_features, np.concatenate([bf for _, bf in ref]))
    local_edges = [oracles.directed_edges(g) for g in graphs]
    assert_bits(np.concatenate([g.directed_edges for g in graphs]), np.concatenate(local_edges))
    union = pack.gather(np.arange(len(graphs)))
    ref_edges = []
    edge_base = atom_base = 0
    for g, e in zip(graphs, local_edges):
        ref_edges.append(e + [atom_base, atom_base, 0, edge_base])
        edge_base += len(e)
        atom_base += g.n_atoms
    ref_edges = np.concatenate(ref_edges)
    assert_bits(union.src, ref_edges[:, 0])
    assert_bits(union.dst, ref_edges[:, 1])
    # the union stores no reverse index: message pairs edge e with e ^ 1
    assert_bits(ref_edges[:, 3], np.arange(len(union.src)) ^ 1)
    assert_bits(union.edge_features, np.concatenate(
        [bf[e[:, 2]] for e, (_, bf) in zip(local_edges, ref)]))


def test_phys_slots_match_oracle(prepared):
    smis, (pack, blocks) = prepared
    ref = np.stack([oracles.phys_block(smiles.parse_smiles(s)) for s in smis])
    assert_bits(np.stack([b.phys for b in blocks]), ref)
    assert_bits(feat.builtin_phys_matrix(pack.codes), ref)


def test_per_graph_wrappers_match_oracle():
    for smi in EDGE_CASES + pool()[:200]:
        g = smiles.featurize(smiles.parse_smiles(smi))
        af, bf = oracles.features(g)
        assert_bits(g.atom_features, af)
        assert_bits(g.bond_features, bf)
        assert_bits(feat.builtin_phys_block(g), oracles.phys_block(g))
        assert_bits(feat.compute_phys_descriptors(g), oracles.phys_descriptors(g))


@pytest.mark.parametrize("smi, components", [
    ("C", 1), ("C.C", 2), ("C1.C1", 1), ("[Na+].[Cl-]", 2), ("C1CC2.C1C2", 1),
    ("C1.C2.C3.C123", 1), ("CCO.CC.[Na+]", 3),
])
def test_components_counted_on_the_bond_graph(smi, components):
    g = smiles.parse_smiles(smi)
    assert g.n_components == components
    d = feat.compute_phys_descriptors(g)
    assert d[feat.BUILTIN_DESCRIPTOR_NAMES.index("components")] == components


def test_pack_offsets_cover_its_arrays(prepared):
    smis, (pack, _) = prepared
    assert len(pack.graphs) == len(smis)
    assert pack.codes.atom_off[-1] == len(pack.atom_features) == len(pack.codes.element)
    assert pack.codes.bond_off[-1] == len(pack.bond_features) == len(pack.codes.order)


def test_pack_of_parsed_graphs_matches_pack_of_featurized_copies():
    smis = EDGE_CASES + pool()[:300]
    parsed = pack_graphs([smiles.parse_smiles(s) for s in smis])
    featurized = pack_graphs([smiles.featurize(smiles.parse_smiles(s)) for s in smis])
    for name in ("atom_features", "bond_features"):
        assert_bits(getattr(parsed, name), getattr(featurized, name))
    for name, codes in vars(parsed.codes).items():
        assert_bits(codes, getattr(featurized.codes, name))
