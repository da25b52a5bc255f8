import numpy as np

from mtlmolnet import _kernels, encoder
from mtlmolnet import autodiff as ad
from mtlmolnet.smiles import ATOM_FEATURE_DIM, BOND_FEATURE_DIM, featurize, parse_smiles


def random_case(seed, m=257, h=19, n=40):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(m, h))
    idx = rng.integers(0, n, size=m)
    return src, idx, n


def add_at_reference(src, idx, n):
    out = np.zeros((n,) + src.shape[1:])
    np.add.at(out, idx, src)
    return out


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestScatterAdd:
    def test_numpy_matches_dense_reference(self):
        src, idx, n = random_case(0)
        out = _kernels.scatter_add_rows(src, idx, np.zeros((n, src.shape[1])))
        ref = np.zeros_like(out)
        for i, r in enumerate(idx):
            ref[r] += src[i]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_random_indices_match_add_at_bitwise(self):
        for seed in range(5):
            src, idx, n = random_case(seed)
            out = _kernels.scatter_add_rows(src, idx, np.zeros((n, src.shape[1])))
            assert_bitwise_equal(out, add_at_reference(src, idx, n))

    def test_skewed_index_matches_add_at_bitwise(self):
        # one row receives thousands of sources, the others a handful
        rng = np.random.default_rng(11)
        idx = np.where(rng.random(5000) < 0.9, 3, rng.integers(0, 64, size=5000))
        src = rng.normal(size=(5000, 7)) * 10.0 ** rng.integers(-8, 9, size=(5000, 1))
        out = _kernels.scatter_add_rows(src, idx, np.zeros((64, 7)))
        assert_bitwise_equal(out, add_at_reference(src, idx, 64))

    def test_accumulates_into_nonzero_out(self):
        src, idx, n = random_case(3)
        base = np.random.default_rng(4).normal(size=(n, src.shape[1]))
        ref = base.copy()
        np.add.at(ref, idx, src)
        out = _kernels.scatter_add_rows(src, idx, base)
        assert out is base
        assert_bitwise_equal(out, ref)

    def test_encode_batch_index_arrays_match_add_at_bitwise(self, monkeypatch):
        # every scatter of one forward and backward pass: dst (two message
        # steps, the readout) and molecule pooling forward, src from the two
        # message backwards
        graphs = [featurize(parse_smiles(s)) for s in
                  ("CC(=O)Oc1ccccc1C(=O)O", "c1ccc2ccccc2c1", "CCO", "C",
                   "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "ClC(Cl)(Cl)Cl")]
        params = encoder.init_encoder_params(ATOM_FEATURE_DIM, BOND_FEATURE_DIM, 32, 3,
                                             np.random.default_rng(5))
        kernel = _kernels.scatter_add_rows
        calls = []

        def record(src, index, out):
            calls.append((src.copy(), np.array(index), out.copy()))
            return kernel(src, index, out)

        monkeypatch.setattr(_kernels, "scatter_add_rows", record)
        ad.tensor_sum(encoder.encode_batch(graphs, params)).backward()
        assert len(calls) == 6
        for src, index, out in calls:
            ref = out.copy()
            np.add.at(ref, index, src)
            assert_bitwise_equal(kernel(src, index, out), ref)

    def test_duplicate_index_accumulation_order(self):
        # three tiny values into one row: both paths add in row order
        src = np.array([[1e16], [1.0], [-1e16]])
        idx = np.zeros(3, dtype=np.int64)
        out = _kernels.scatter_add_rows(src, idx, np.zeros((1, 1)))
        assert out[0, 0] == ((1e16 + 1.0) + -1e16)

    def test_empty(self):
        out = _kernels.scatter_add_rows(np.zeros((0, 4)), np.zeros(0, dtype=np.int64),
                                        np.zeros((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_empty_index_leaves_out_bitwise(self):
        base = np.random.default_rng(6).normal(size=(3, 4))
        expected = base.copy()
        out = _kernels.scatter_add_rows(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), base)
        assert_bitwise_equal(out, expected)
        none = _kernels.scatter_add_rows(np.zeros((0, 4)), np.zeros(0, dtype=np.int64),
                                         np.zeros((0, 4)))
        assert none.shape == (0, 4)
