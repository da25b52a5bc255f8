import numpy as np
import pytest
import synth

from mtlmolnet import smiles
from mtlmolnet.autodiff import ShapeMismatch, Tensor
from mtlmolnet.config import TrainConfig
from mtlmolnet.encoder import (
    EmptyMolecule,
    EncoderParams,
    count_parameters,
    encode,
    encode_batch,
    init_encoder_params,
)


def graph(smi):
    return smiles.featurize(smiles.parse_smiles(smi))


def params(hidden=16, depth=3, seed=0):
    rng = np.random.default_rng(seed)
    return init_encoder_params(smiles.ATOM_FEATURE_DIM, smiles.BOND_FEATURE_DIM,
                               hidden, depth, rng)


class TestEncode:
    def test_single_atom_closed_form(self):
        p = params()
        g = graph("C")
        fp = encode(g, p)
        expected = np.maximum(
            np.concatenate([g.atom_features[0], np.zeros(p.w_msg.data.shape[0])]) @ p.w_out.data,
            0.0,
        )
        np.testing.assert_array_equal(fp.z, expected)

    def test_zero_weights_zero_fingerprint(self):
        p = params()
        for t in (p.w_in, p.w_msg, p.w_out):
            t.data[:] = 0.0
        fp = encode(graph("CCO"), p)
        np.testing.assert_array_equal(fp.z, np.zeros(p.w_msg.data.shape[0]))

    def test_relabeled_graphs_match(self):
        p = params()
        za = encode(graph("CCO"), p).z
        zb = encode(graph("OCC"), p).z
        np.testing.assert_allclose(za, zb, atol=1e-9)

    def test_batch_matches_single(self):
        p = params()
        graphs = [graph(s) for s in ("CCO", "c1ccccc1", "C", "CC(=O)[O-]")]
        zs = encode_batch(graphs, p).data
        for i, g in enumerate(graphs):
            np.testing.assert_allclose(zs[i], encode(g, p).z, atol=1e-12)

    def test_deterministic(self):
        p = params()
        g = graph("CC(=O)Nc1ccc(O)cc1")
        np.testing.assert_array_equal(encode(g, p).z, encode(g, p).z)

    def test_empty_molecule(self):
        p = params()
        g = synth.empty_graph()
        with pytest.raises(EmptyMolecule):
            encode(g, p)

    def test_parsed_graph_encodes_like_its_featurized_twin(self):
        p = params()
        for smi in ("CCO", "C", "CC(=O)Nc1ccc(O)cc1", "[Na+].[Cl-]"):
            parsed = smiles.parse_smiles(smi)
            assert parsed.atom_features is None
            z = encode(parsed, p).z
            np.testing.assert_array_equal(z.view(np.int64),
                                          encode(graph(smi), p).z.view(np.int64))

    def test_shape_mismatch(self):
        p = params(hidden=16)
        bad = EncoderParams(w_in=p.w_in, w_msg=Tensor(np.zeros((8, 8))),
                            w_out=p.w_out, depth=3)
        with pytest.raises(ShapeMismatch):
            encode(graph("CCO"), bad)

    def test_locality_of_disconnected_components(self):
        # perturbing one fragment leaves the other fragment's encoding alone
        p = params()
        g1 = graph("CCO.CCCC")
        g2 = graph("CCN.CCCC")  # first fragment differs
        z_first_1 = encode(graph("CCO"), p).z
        z_first_2 = encode(graph("CCN"), p).z
        z_frag = encode(graph("CCCC"), p).z
        # mean pooling over all atoms: fragment contributions are additive
        np.testing.assert_allclose(
            encode(g1, p).z, (3 * z_first_1 + 4 * z_frag) / 7, atol=1e-12)
        np.testing.assert_allclose(
            encode(g2, p).z, (3 * z_first_2 + 4 * z_frag) / 7, atol=1e-12)

    def test_gradient_flows_to_all_weights(self):
        p = params(hidden=8)
        out = encode_batch([graph("CCO"), graph("c1ccccc1")], p)
        out.sum().backward()
        for t in (p.w_in, p.w_msg, p.w_out):
            assert t.grad is not None
            assert np.any(t.grad != 0)


PERMUTATION_PAIRS = [
    ("CCO", "OCC"),
    ("CCN", "NCC"),
    ("CCCl", "ClCC"),
    ("CC=O", "O=CC"),
    ("CC#N", "N#CC"),
    ("CCOC", "COCC"),
    ("CC(C)C", "C(C)(C)C"),
    ("OCC(O)CO", "C(O)C(CO)O"),
    ("CC(=O)O", "OC(C)=O"),
    ("c1ccccc1O", "Oc1ccccc1"),
]


@pytest.mark.parametrize("sa,sb", PERMUTATION_PAIRS)
def test_permutation_invariance(sa, sb):
    p = params(hidden=32, seed=3)
    za = encode(graph(sa), p).z
    zb = encode(graph(sb), p).z
    assert np.abs(za - zb).max() < 1e-9


class TestCountParameters:
    def test_encoder_block_arithmetic(self):
        cfg = TrainConfig(hidden=300, ffn_hidden=300, variant="qw-mtl")
        total = count_parameters(cfg, n_tasks=0)
        # heads contribute 0 tasks; log_beta vector is empty
        assert total == 39 * 300 + 300 * 300 + 333 * 300 == 201_600

    def test_head_additivity(self):
        cfg = TrainConfig(variant="qw-mtl")
        base = count_parameters(cfg, n_tasks=1)
        head = (cfg.fused_dim * cfg.ffn_hidden + cfg.ffn_hidden
                + cfg.ffn_hidden + 1)
        assert count_parameters(cfg, n_tasks=2) == base + head + 1  # +1 log_beta

    def test_uniform_weighting_drops_log_beta(self):
        cfg_beta = TrainConfig(variant="qw-mtl")
        cfg_flat = TrainConfig(variant="multi-rdkit-qc")
        assert count_parameters(cfg_beta, 3) == count_parameters(cfg_flat, 3) + 3
