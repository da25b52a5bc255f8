"""The lean training tape: activations that overwrite their matmul output,
and the heap peak of one training step.

``autodiff.relu`` and ``autodiff.add_relu`` take ``out=``, which may name
only the op's last input: the result is written over that input's buffer
with the bits of the call without ``out=``. ``encoder.encode_batch`` passes
it for the three activations, each of which reads a fresh matmul output,
so the tape keeps one array per activation.
"""

import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mtlmolnet import autodiff as ad
from mtlmolnet import config, data, encoder, model, smiles
from mtlmolnet.autodiff import InvalidOut, NonFiniteValue, Tensor

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import molgen  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))
from test_lean_forward import bits, with_signed_zeros  # noqa: E402


def fresh(x0):
    """(leaf, node): a node holding the bits of ``x0`` whose gradient
    reaches ``leaf.grad`` with its bits, as an op output no backward reads."""
    leaf = Tensor(x0.copy(), requires_grad=True)
    return leaf, ad.mul(leaf, 1.0)


class TestOutContract:
    @pytest.mark.parametrize("width", [16, 300])
    def test_relu_keeps_every_bit(self, width):
        rng = np.random.default_rng(width)
        x0, g = with_signed_zeros(rng, (60, width)), with_signed_zeros(rng, (60, width))
        runs = []
        for overwrite in (False, True):
            leaf, x = fresh(x0)
            y = ad.relu(x, out=x if overwrite else None)
            assert np.shares_memory(y.data, x.data) == overwrite
            runs.append(y.data)
            ad.tensor_sum(ad.mul(y, Tensor(g))).backward()
            runs.append(leaf.grad)
        for plain, written in zip(runs[:2], runs[2:]):
            np.testing.assert_array_equal(bits(plain), bits(written))
        assert np.signbit(x0[x0 == 0]).any() and np.signbit(g[g == 0]).any()

    @pytest.mark.parametrize("width", [16, 300])
    def test_add_relu_keeps_every_bit(self, width):
        rng = np.random.default_rng(width + 1)
        a0, b0, g = (with_signed_zeros(rng, (60, width)) for _ in range(3))
        runs = []
        for overwrite in (False, True):
            a = Tensor(a0.copy(), requires_grad=True)
            b_leaf, b = fresh(b0)
            y = ad.add_relu(a, b, out=b if overwrite else None)
            assert np.shares_memory(y.data, b.data) == overwrite
            assert not np.shares_memory(y.data, a.data)
            ad.tensor_sum(ad.mul(y, Tensor(g))).backward()
            runs.append((y.data, a.grad, b_leaf.grad))
        for plain, written in zip(*runs):
            np.testing.assert_array_equal(bits(plain), bits(written))
        np.testing.assert_array_equal(a.data, a0)

    def test_no_grad_overwrite_keeps_bits(self):
        rng = np.random.default_rng(5)
        a0, b0 = with_signed_zeros(rng, (40, 16)), with_signed_zeros(rng, (40, 16))
        with ad.no_grad():
            b = Tensor(b0.copy())
            y = ad.add_relu(Tensor(a0), b, out=b)
            x = Tensor(b0.copy())
            z = ad.relu(x, out=x)
        assert y.data is b.data and z.data is x.data
        np.testing.assert_array_equal(bits(y.data), bits(np.maximum(a0 + b0, 0.0)))
        np.testing.assert_array_equal(bits(z.data), bits(np.maximum(b0, 0.0)))

    def test_overflowing_sum_still_raises(self):
        a, b = Tensor([[-1e308, 1.0]]), Tensor([[-1e308, 2.0]])
        with pytest.raises(NonFiniteValue,
                           match=re.escape("add_relu produced 1 non-finite value(s) "
                                           "(input shapes: (1, 2), (1, 2))")):
            with np.errstate(over="ignore"):
                ad.add_relu(a, b, out=b)

    def test_leaf_parameter_refused(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        a = Tensor(np.ones((2, 3)))
        for call in (lambda: ad.relu(p, out=p), lambda: ad.add_relu(a, p, out=p)):
            with pytest.raises(InvalidOut, match="leaf that tracks gradients"):
                call()
            with ad.no_grad(), pytest.raises(InvalidOut, match="leaf that tracks gradients"):
                call()
        np.testing.assert_array_equal(p.data, np.ones((2, 3)))

    def test_only_the_last_input_may_be_out(self):
        a, b, other = (Tensor(np.full((2, 3), v)) for v in (-1.0, 2.0, 3.0))
        for call in (lambda: ad.add_relu(a, b, out=a), lambda: ad.add_relu(a, b, out=other),
                     lambda: ad.relu(a, out=b), lambda: ad.relu(a, out=a.data)):
            with pytest.raises(InvalidOut, match="only the op's last input"):
                call()
        for t, v in ((a, -1.0), (b, 2.0), (other, 3.0)):
            np.testing.assert_array_equal(t.data, np.full((2, 3), v))


# Measured traced peak of this step, in units of its E x H x 8 bytes: 14.03
# before the activations overwrote their matmul outputs and Adam dropped its
# gradient copy, 11.51 after.
STEP_PEAK_UNITS = 12.3


def test_training_step_peak_in_edge_state_units():
    rng = np.random.default_rng(5)
    smis = [m.smiles for m in molgen.molecules(rng, 50, 20, 28)]
    pack = encoder.pack_graphs([smiles.parse_smiles(s) for s in smis])
    cfg = config.TrainConfig(hidden=300)
    params = model.init_model(cfg, 13, np.random.default_rng(0))
    optimizer = ad.Adam(params.store, lr=cfg.lr)
    rows = np.arange(len(smis))
    union = pack.gather(rows)
    batch = data.Batch(
        graphs=list(pack.graphs), feature_blocks=None,
        labels=(rng.random((50, 13)) < 0.5).astype(np.float64),
        valid=(rng.random((50, 13)) < 0.7).astype(np.float64), row_indices=rows,
        features=np.random.default_rng(1).normal(size=(50, cfg.fused_dim - cfg.hidden)),
        union=union)
    unit = len(union.src) * cfg.hidden * 8
    tracemalloc.start()  # the parameters and Adam's moments, allocated before, are not traced
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss, _ = model.batch_loss(batch, params, cfg)
        loss.backward()
        optimizer.step()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < STEP_PEAK_UNITS * unit, f"peak {peak / unit:.2f} x E x H x 8 bytes"
