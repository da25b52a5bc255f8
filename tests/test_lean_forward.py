"""The lean forward: the reverse edge as a view of the pair layout, the
finiteness scan's size rule, add_relu's check before relu, and the heap
peak of serving.

``autodiff.message`` reads each edge's reverse as the pair-swapped view of
its input (the reverse of edge e is e ^ 1); ``tests/oracles.py`` gathers it
by an explicit ``e ^ 1`` index, so it stays an independent reference.
``autodiff._check_finite`` screens a contiguous output of at least
``_DOT_SCAN_MIN`` elements by one self-dot and scans the rest element by
element; either way a non-finite value raises the same error.
"""

import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from mtlmolnet import autodiff as ad
from mtlmolnet import cli, config, encoder, model, smiles
from mtlmolnet.autodiff import NonFiniteValue, ShapeMismatch, Tensor
from mtlmolnet.checkpoint import load_checkpoint, save_checkpoint

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import molgen  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))
from test_cli import small_flags  # noqa: E402


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def pair_graph(rng, n_atoms, n_bonds):
    """src/dst of ``n_bonds`` random bonds in the pair layout: edge 2i is
    a->b and edge 2i+1 is b->a."""
    ends = np.stack([rng.integers(0, n_atoms, n_bonds), rng.integers(0, n_atoms, n_bonds)])
    src = np.empty(2 * n_bonds, dtype=np.int64)
    dst = np.empty_like(src)
    src[0::2], src[1::2] = ends
    dst[0::2], dst[1::2] = ends[::-1]
    return src, dst


def with_signed_zeros(rng, shape):
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


class TestMessageContract:
    def test_odd_edge_count_is_refused(self):
        src, dst = np.array([0, 1, 1]), np.array([1, 0, 2])
        with pytest.raises(ShapeMismatch, match="3 edges do not pair"):
            ad.message(Tensor(np.ones((3, 2))), src, dst, 3)

    @pytest.mark.parametrize("width", [16, 300])
    def test_bits_match_the_composed_oracle(self, width):
        rng = np.random.default_rng(width)
        n_atoms = 40
        src, dst = pair_graph(rng, n_atoms, 70)
        h0 = with_signed_zeros(rng, (len(src), width))
        g = with_signed_zeros(rng, (len(src), width))
        outs, grads = [], []
        for step in (ad.message, oracles.message_composed):
            h = Tensor(h0.copy(), requires_grad=True)
            out = step(h, src, dst, n_atoms)
            ad.tensor_sum(ad.mul(out, Tensor(g))).backward()
            outs.append(out.data)
            grads.append(h.grad)
        np.testing.assert_array_equal(bits(outs[0]), bits(outs[1]))
        np.testing.assert_array_equal(bits(grads[0]), bits(grads[1]))
        assert np.signbit(g).any() and (g == 0).any()


class TestAddRelu:
    def test_overflow_to_minus_inf_is_caught_before_relu(self):
        a, b = Tensor([[-1e308, 1.0]]), Tensor([[-1e308, 2.0]])
        with pytest.raises(NonFiniteValue,
                           match=re.escape("add_relu produced 1 non-finite value(s) "
                                           "(input shapes: (1, 2), (1, 2))")):
            with np.errstate(over="ignore"):
                ad.add_relu(a, b)

    def test_finite_outputs_keep_their_bits(self):
        rng = np.random.default_rng(3)
        a, b = with_signed_zeros(rng, (50, 7)), with_signed_zeros(rng, (50, 7))
        out = ad.add_relu(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(bits(out), bits(np.maximum(a + b, 0.0)))


SIZES = [ad._DOT_SCAN_MIN - 1, ad._DOT_SCAN_MIN, ad._DOT_SCAN_MIN + 1]


class TestScanAtTheSizeRule:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_non_finite_value_raises(self, n, bad, where):
        x = np.random.default_rng(n).normal(size=n)
        x[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = bad
        with pytest.raises(NonFiniteValue,
                           match=re.escape(f"add produced 1 non-finite value(s) "
                                           f"(input shapes: ({n},), ({n},))")):
            ad.add(Tensor(x), Tensor(np.zeros(n)))

    @pytest.mark.parametrize("n", SIZES)
    def test_finite_values_whose_squares_overflow_pass(self, n):
        x = np.full(n, 1e200)
        x[::3] = -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.add(Tensor(x), Tensor(np.zeros(n)))
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("n", SIZES)
    def test_only_small_outputs_take_the_elementwise_scan(self, n):
        x = np.ones(n)
        tracemalloc.start()
        ad._check_finite(x, "probe", ())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the elementwise scan allocates one bool per element, the dot none
        assert (peak >= n) == (n < ad._DOT_SCAN_MIN)

    def test_non_contiguous_output_is_scanned_without_a_copy(self):
        full = np.ones((4 * ad._DOT_SCAN_MIN, 2))
        view = full[::2, :1]
        assert not view.flags.forc and view.size >= ad._DOT_SCAN_MIN
        tracemalloc.start()
        ad._check_finite(view, "probe", ())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < view.nbytes / 2
        view[-1, 0] = np.inf
        with pytest.raises(NonFiniteValue, match=r"probe produced 1 non-finite"):
            ad._check_finite(view, "probe", ())


def test_overflowing_message_weights_exit_4_naming_the_op(tmp_path, capsys):
    assert cli.main(["train", *small_flags(tmp_path)]) == 0
    ckpt = tmp_path / "runs" / "model_seed0.ckpt"
    params, cfg, stats, specs = load_checkpoint(ckpt)
    params.store.tensors["encoder.w_msg"].data[...] *= 1e308
    bad = tmp_path / "overflow.ckpt"
    save_checkpoint(bad, params, cfg, stats, specs)
    mols = tmp_path / "mols.txt"
    mols.write_text("CCCCO\nc1ccccc1CN\n")
    capsys.readouterr()
    rc = cli.main(["predict", "--checkpoint", str(bad), "--data", str(mols),
                   "--out", str(tmp_path / "preds.csv")])
    assert rc == cli.EXIT_NUMERIC
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert re.match(r"error: matmul produced \d+ non-finite value\(s\) \(input shapes: ", err[0])


# Measured traced peak of this request, in units of its E x H x 8 bytes:
# 5.69 before the message was freed ahead of add_relu and the reverse edge
# read as a view, 4.22 after, 3.83 since each step frees the old state once
# its message is built, add_relu overwrites the matmul output and no name
# holds the edge inputs.
SERVING_PEAK_UNITS = 4.0


def test_serving_peak_in_edge_state_units():
    rng = np.random.default_rng(31)
    smis = [m.smiles for m in molgen.molecules(rng, 50, 10, 40)]
    pack = encoder.pack_graphs([smiles.parse_smiles(s) for s in smis])
    cfg = config.TrainConfig(hidden=300)
    params = model.init_model(cfg, 13)
    rows = np.arange(len(smis))
    features = np.random.default_rng(1).normal(size=(len(smis), cfg.fused_dim - cfg.hidden))
    unit = len(pack.gather(rows).src) * cfg.hidden * 8
    model.predict_rows(pack, rows, features, params)
    tracemalloc.start()  # the parameters, allocated before, are not traced
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.predict_rows(pack, rows, features, params)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < SERVING_PEAK_UNITS * unit, f"peak {peak / unit:.2f} x E x H x 8 bytes"
