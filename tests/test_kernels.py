import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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


class TestContract:
    """The kernel against ``np.add.at`` on a copy of the same ``out``, bit
    for bit, over widths, index shapes, special values and memory layouts.

    One freedom is left: where two NaNs meet, which payload survives. For
    ``x + y`` numpy keeps x's, while ``np.add.at`` on rows keeps y's (the
    rank-pass kernel, adding through ``np.add``, kept x's at widths above 1).
    So where both results are NaN, any NaN passes; every other bit, the sign
    of zero and of a lone NaN included, must match.
    """

    SPECIAL = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2e-308, 1e308,
         -1e308, 1.0],
        np.array([0xFFF8000000000123, 0x7FF8000000000001], dtype=np.uint64).view(np.float64),
    ])

    @classmethod
    def values(cls, rng, shape):
        """Normal values over 17 decades, a third of them special."""
        normal = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        return np.where(rng.random(shape) < 0.33, rng.choice(cls.SPECIAL, size=shape), normal)

    @staticmethod
    def laid_out(a, layout):
        """A copy of ``a`` in the given memory layout, same values."""
        m, w = a.shape
        if layout == "column_slice":
            wide = np.zeros((m, w + 3))
            wide[:, 1:w + 1] = a
            return wide[:, 1:w + 1]
        if layout == "transpose":
            return np.ascontiguousarray(a.T).T
        if layout == "offset":  # 8 bytes past the start of its buffer
            buf = np.zeros(a.size + 1)
            buf[1:] = a.reshape(-1)
            return buf[1:].reshape(m, w)
        return a.copy()

    @seed(23)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(width=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 300]),
           n_out=st.integers(1, 12), m=st.integers(0, 40),
           kind=st.sampled_from(["empty", "sorted", "skewed", "random"]),
           nonzero_base=st.booleans(),
           src_layout=st.sampled_from(["contiguous", "column_slice", "transpose", "offset"]),
           out_layout=st.sampled_from(["contiguous", "column_slice", "transpose"]),
           case_seed=st.integers(0, 2**32 - 1))
    def test_matches_add_at_bitwise(self, width, n_out, m, kind, nonzero_base, src_layout,
                                    out_layout, case_seed):
        rng = np.random.default_rng(case_seed)
        m = 0 if kind == "empty" else m
        index = rng.integers(0, n_out, size=m)
        if kind == "sorted":  # molecule pooling: runs of one destination
            index.sort()
        elif kind == "skewed":  # one row receives most sources
            index[rng.random(m) < 0.8] = n_out - 1
        # rows n_out.. receive no source
        rows = (n_out + 2, width)
        base = self.values(rng, rows) if nonzero_base else np.zeros(rows)
        src = self.laid_out(self.values(rng, (m, width)), src_layout)
        out = self.laid_out(base, out_layout)
        ref = base.copy()
        with np.errstate(all="ignore"):
            np.add.at(ref, index, src)
            result = _kernels.scatter_add_rows(src, index, out)
        assert result is out
        both_nan = np.isnan(out) & np.isnan(ref)
        assert_bitwise_equal(np.where(both_nan, np.nan, out), np.where(both_nan, np.nan, ref))


class TestGuards:
    @pytest.mark.parametrize("make_out", [
        lambda: np.zeros((5, 8))[:, :4],  # views as pairs, but reshape(-1) copies
        lambda: np.zeros((5, 7))[:, 1:6],
        lambda: np.zeros((4, 5)).T,
        lambda: np.zeros((10, 4))[::2],
    ], ids=["column_slice_even", "column_slice_odd", "transpose", "row_stride"])
    def test_non_contiguous_out_receives_every_add(self, make_out):
        out = make_out()
        src = np.arange(1.0, 1.0 + 6 * out.shape[1]).reshape(6, out.shape[1])
        index = np.array([0, 2, 0, 1, 2, 2])
        ref = np.zeros(out.shape)
        np.add.at(ref, index, src)
        assert _kernels.scatter_add_rows(src, index, out) is out
        assert_bitwise_equal(out, ref)

    @pytest.mark.parametrize("src_shape", [(3, 2), (6, 2), (1, 1), (3, 5), (2, 4)],
                             ids=["narrow", "rows_folded_into_width", "broadcast",
                                  "wide", "fewer_rows"])
    def test_src_that_does_not_fit_raises(self, src_shape):
        # out rows have width 4 and the index has 3 entries
        with pytest.raises(ValueError, match="scatter_add_rows: src"):
            _kernels.scatter_add_rows(np.ones(src_shape), np.zeros(3, dtype=np.int64),
                                      np.zeros((4, 4)))

    @pytest.mark.parametrize("width", [3, 4])
    def test_index_past_the_last_row_raises(self, width):
        out = np.zeros((4, width))
        with pytest.raises(IndexError):
            _kernels.scatter_add_rows(np.ones((2, width)), np.array([1, 4]), out)

    def test_scatter_add_refuses_a_negative_index(self):
        # np.add.at, and so the kernel, would add index -1 into the last row;
        # test_autodiff's test_message_index_checked covers message's guard
        with pytest.raises(ad.ShapeMismatch):
            ad.scatter_add(ad.Tensor(np.ones((2, 4))), np.array([0, -1]), 3)
