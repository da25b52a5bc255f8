"""The packed table layout: one GraphPack per table, batches as gathers.

Every gathered array must equal what a per-graph loop over the same rows
builds, and encoding a gathered batch must give the same bits as encoding
the bare list of graphs.
"""

import dataclasses

import numpy as np
import pytest
import synth

from mtlmolnet import autodiff as ad
from mtlmolnet import data as dat
from mtlmolnet import features as feat
from mtlmolnet import model as mdl
from mtlmolnet import smiles
from mtlmolnet.config import TrainConfig
from mtlmolnet.data import TaskSpec
from mtlmolnet.encoder import EmptyMolecule, encode_batch, init_encoder_params, pack_graphs

SMILES = ["C", "CCO", "O", "c1ccccc1", "CC(=O)[O-]", "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
          "ClC(Cl)(Cl)Cl", "N", "CC(=O)Oc1ccccc1C(=O)O", "OCC(O)CO", "CCN", "C1CC1"]
SPECS = [TaskSpec("A", "AUROC", "A", "A_split"), TaskSpec("B", "AUROC", "B", "B_split")]


def graph(smi):
    return smiles.featurize(smiles.parse_smiles(smi))


def prepared_table(tmp_path, n=36):
    rows = []
    for i in range(n):
        smi = SMILES[i % len(SMILES)]
        split = "train" if i % 4 else "val"
        rows.append(f"{smi},{int('O' in smi)},{split},{int('N' in smi)},{split},1")
    path = tmp_path / "pack.csv"
    path.write_text("smiles,A,A_split,B,B_split,fold\n" + "\n".join(rows) + "\n")
    return dat.prepare_table(dat.load_dataset(path, SPECS))


def reference_union(graphs):
    """The disjoint union built one featurized graph at a time, and the
    reverse edge of each of its edges."""
    graphs = [smiles.featurize(dataclasses.replace(g)) for g in graphs]
    src, dst, rev, efeat, mol_of_atom = [], [], [], [], []
    atom_off = edge_off = 0
    for mol, g in enumerate(graphs):
        mol_of_atom += [mol] * g.n_atoms
        if g.n_bonds:
            e = g.directed_edges
            src.append(e[:, 0] + atom_off)
            dst.append(e[:, 1] + atom_off)
            rev.append(e[:, 3] + edge_off)
            efeat.append(g.bond_features[e[:, 2]])
            edge_off += len(e)
        atom_off += g.n_atoms
    empty = np.zeros(0, dtype=np.int64)
    return {
        "atom_features": np.concatenate([g.atom_features for g in graphs]),
        "src": np.concatenate(src) if src else empty,
        "dst": np.concatenate(dst) if dst else empty,
        "edge_features": (np.concatenate(efeat) if efeat
                          else np.zeros((0, smiles.BOND_FEATURE_DIM))),
        "mol_of_atom": np.array(mol_of_atom, dtype=np.int64),
        "inv_atoms": np.array([[1.0 / g.n_atoms] for g in graphs]),
    }, (np.concatenate(rev) if rev else empty)


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype == np.float64:
        a, b = a.view(np.int64), b.view(np.int64)
    np.testing.assert_array_equal(a, b)


class TestGather:
    def test_random_subsets_match_reference_loop(self, tmp_path):
        table = prepared_table(tmp_path)
        rng = np.random.default_rng(0)
        subsets = [np.array([0]), np.array([2, 0]), np.arange(table.n_rows)]
        subsets += [rng.choice(table.n_rows, size=int(rng.integers(1, table.n_rows)),
                               replace=False) for _ in range(30)]
        for rows in subsets:
            union = table.pack.gather(rows)
            ref, ref_rev = reference_union([table.pack.graphs[r] for r in rows])
            for name, expected in ref.items():
                assert_bitwise_equal(getattr(union, name), expected)
            # the union stores no reverse index: the layout pairs e with e ^ 1
            assert_bitwise_equal(ref_rev, np.arange(len(union.src)) ^ 1)

    def test_bondless_rows_only(self, tmp_path):
        table = prepared_table(tmp_path)
        rows = [i for i, g in enumerate(table.pack.graphs) if g.n_bonds == 0]
        assert len(rows) >= 3  # C, O and N
        union = table.pack.gather(rows)
        assert len(union.src) == len(union.edge_features) == 0
        np.testing.assert_array_equal(union.mol_of_atom, np.arange(len(rows)))

    def test_pack_sets_nothing_on_its_graphs(self, tmp_path):
        table = prepared_table(tmp_path)
        pack = table.pack
        assert all(g.atom_features is None and g.bond_features is None for g in pack.graphs)
        assert len(pack.atom_features) == sum(g.n_atoms for g in pack.graphs)
        assert len(pack.bond_features) == sum(g.n_bonds for g in pack.graphs)
        for make in (smiles.parse_smiles, graph):
            graphs = [make(s) for s in SMILES]
            before = [(vars(g).copy(), {k: v.copy() for k, v in vars(g).items()
                                        if isinstance(v, np.ndarray)}) for g in graphs]
            pack_graphs(graphs)
            for g, (attrs, arrays) in zip(graphs, before):
                assert vars(g).keys() == attrs.keys()
                assert all(vars(g)[k] is v for k, v in attrs.items())
                for k, v in arrays.items():
                    assert_bitwise_equal(vars(g)[k], v)

    def test_pack_refuses_what_encode_batch_refused(self):
        with pytest.raises(EmptyMolecule, match="empty graph batch"):
            pack_graphs([])
        with pytest.raises(EmptyMolecule, match="no atoms"):
            pack_graphs([graph("CC"), synth.empty_graph()])


class TestEncodeGathered:
    def test_forward_and_backward_match_bare_list_bitwise(self, tmp_path):
        table = prepared_table(tmp_path)
        rng = np.random.default_rng(3)
        for rows in (rng.permutation(table.n_rows)[:17], np.array([0, 2, 7])):
            results = []
            # table graphs with a gathered union, then freshly parsed graphs alone
            for graphs, union in (([table.pack.graphs[r] for r in rows], table.pack.gather(rows)),
                                  ([graph(table.smiles[r]) for r in rows], None)):
                params = init_encoder_params(smiles.ATOM_FEATURE_DIM,
                                             smiles.BOND_FEATURE_DIM, 16, 3,
                                             np.random.default_rng(5))
                z = encode_batch(graphs, params, union=union)
                ad.tensor_sum(ad.mul(z, ad.Tensor(np.linspace(-1, 1, z.data.size)
                                                  .reshape(z.data.shape)))).backward()
                results.append([z.data] + [t.grad for t in (params.w_in, params.w_msg,
                                                            params.w_out)])
            for a, b in zip(*results):
                assert_bitwise_equal(a, b)


class TestStandardizeOnce:
    def test_feature_matrix_with_stats_matches_standardize_bitwise(self):
        rng = np.random.default_rng(1)
        blocks = [feat.FeatureBlock(phys=rng.normal(size=200) * 50, qc=rng.normal(size=4),
                                    qc_mask=(rng.random(4) < 0.6).astype(float))
                  for _ in range(25)]
        stats = feat.fit_stats(blocks, indices=list(range(18)))
        for use_qc in (True, False):
            assert_bitwise_equal(
                feat.feature_matrix(blocks, use_qc=use_qc, stats=stats),
                feat.feature_matrix(feat.standardize(blocks, stats), use_qc=use_qc))

    def test_train_leaves_blocks_alone(self, tmp_path):
        table = prepared_table(tmp_path)
        blocks = table.blocks
        arrays = (blocks.phys, blocks.qc, blocks.qc_mask)
        copies = [(b.phys.copy(), b.qc.copy(), b.qc_mask.copy()) for b in blocks]
        cfg = TrainConfig(variant="qw-mtl", hidden=6, depth=2, ffn_hidden=5,
                          epochs=2, batch_size=8, seed=0)
        first = mdl.train(table, cfg).history
        assert table.blocks is blocks
        assert all(a is b for a, b in zip((blocks.phys, blocks.qc, blocks.qc_mask), arrays))
        for b, (phys, qc, qc_mask) in zip(table.blocks, copies):
            assert_bitwise_equal(b.phys, phys)
            assert_bitwise_equal(b.qc, qc)
            assert_bitwise_equal(b.qc_mask, qc_mask)
        # so a second call on the same table repeats the first
        assert mdl.train(table, cfg).history == first
