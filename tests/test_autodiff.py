import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlmolnet import autodiff as ad
from mtlmolnet.autodiff import (
    Adam,
    DomainError,
    NonFiniteValue,
    NotScalar,
    ParamStore,
    ShapeMismatch,
    TapeConsumed,
    Tensor,
    clamp,
    concat,
    index_select,
    pow_elem,
    scatter_add,
)


def finite_diff(f, x, h=1e-6):
    """Central finite differences of a scalar function over a flat array."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_grad(op, x0, h=1e-6, atol=1e-5, rtol=1e-4):
    """Compare backward() of sum(op(x)) against finite differences."""
    x = Tensor(x0, requires_grad=True)
    op(x).sum().backward()
    num = finite_diff(lambda v: op(Tensor(v)).sum().data.item(), x0, h=h)
    err = np.abs(x.grad - num)
    ok = (err < atol) | (err < rtol * np.maximum(np.abs(x.grad), np.abs(num)))
    assert ok.all(), f"grad mismatch: max abs err {err.max()}"


class TestForward:
    def test_matmul(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))

    def test_scatter_add_empty(self):
        out = scatter_add(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=int), 4)
        assert out.data.shape == (4, 3)
        assert np.all(out.data == 0)

    def test_scatter_add_accumulates(self):
        src = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 20.0]]))
        out = scatter_add(src, np.array([1, 1, 0]), 2)
        np.testing.assert_array_equal(out.data, [[10.0, 20.0], [4.0, 6.0]])

    def test_index_select(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = index_select(x, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])

    def test_softplus_zero(self):
        assert ad.softplus(Tensor(0.0)).data == pytest.approx(np.log(2.0), abs=1e-15)

    def test_softplus_no_overflow(self):
        out = ad.softplus(Tensor([1000.0, -1000.0]))
        assert out.data[0] == 1000.0
        assert out.data[1] == 0.0

    def test_sigmoid_zero(self):
        x = Tensor(0.0, requires_grad=True)
        out = ad.sigmoid(x)
        assert out.data == 0.5
        out.backward()
        assert x.grad == 0.25

    def test_pow_elem_values(self):
        out = pow_elem(Tensor(0.5), Tensor(1.0))
        assert out.data == pytest.approx(0.5, abs=1e-15)

    def test_pow_elem_exponent_grad(self):
        e = Tensor(1.0, requires_grad=True)
        pow_elem(Tensor(0.5), e).backward()
        assert e.grad == pytest.approx(0.5 * np.log(0.5), abs=1e-12)

    def test_pow_elem_base_one_exact(self):
        for expo in np.linspace(-8, 8, 33):
            assert pow_elem(Tensor(1.0), Tensor(expo)).data.item() == 1.0

    def test_pow_elem_domain(self):
        with pytest.raises(DomainError):
            pow_elem(Tensor(-1.0), Tensor(2.0))
        with pytest.raises(DomainError):
            pow_elem(Tensor(0.0), Tensor(2.0))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            ad.log(Tensor([1.0, 0.0]))

    def test_nonfinite_aborts(self):
        with pytest.raises(NonFiniteValue):
            ad.exp(Tensor(1e300))

    def test_clamp(self):
        out = clamp(Tensor([-1.0, 0.5, 2.0]), 0.0, 1.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.5, 1.0])


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == 6.0

    def test_softplus_grad_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        ad.softplus(x).backward()
        assert x.grad == 0.5

    def test_sum_backward_ones(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_not_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(NotScalar):
            (x * 2.0).backward()

    def test_tape_consumed(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        y.backward()
        with pytest.raises(TapeConsumed):
            y.backward()

    def test_shared_leaf_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert x.grad == 7.0

    def test_no_tape_without_requires_grad(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        out = a * b
        assert out._parents == ()
        assert out._backward_fn is None
        assert not out.requires_grad

    def test_linearity(self):
        def run(a, b):
            x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
            f = ad.softplus(x).sum()
            g = (x * x).sum()
            (a * f + b * g).backward()
            return x.grad

        ga = run(1.0, 0.0)
        gb = run(0.0, 1.0)
        gboth = run(2.0, -3.0)
        np.testing.assert_allclose(gboth, 2.0 * ga - 3.0 * gb, atol=1e-12)

    def test_matmul_grad(self):
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        ad.matmul(a, b).sum().backward()
        num_a = finite_diff(lambda v: (v @ b0).sum(), a0)
        num_b = finite_diff(lambda v: (a0 @ v).sum(), b0)
        np.testing.assert_allclose(a.grad, num_a, atol=1e-6)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-6)

    def test_scatter_and_gather_grads(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 1, 0])
        w = rng.normal(size=(5, 3))  # weights make the reduction non-trivial

        def f(v):
            t = Tensor(v, requires_grad=True)
            out = scatter_add(t, idx, 3)
            gathered = index_select(out, np.array([2, 2, 0]))
            return t, (gathered * Tensor(w[:3])).sum()

        t, loss = f(x0)
        loss.backward()
        num = finite_diff(lambda v: f(v)[1].data.item(), x0)
        np.testing.assert_allclose(t.grad, num, atol=1e-6)

    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        ((x + b) * 2.0).sum().backward()
        np.testing.assert_array_equal(b.grad, [8.0, 8.0, 8.0])
        np.testing.assert_array_equal(x.grad, np.full((4, 3), 2.0))

    def test_concat_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])

    def test_clamp_grad_zero_outside(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        clamp(x, 0.0, 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gradcheck_elementwise_ops(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, size=(2, 3))
    check_grad(ad.relu, x0 + 0.01)  # keep away from the kink
    check_grad(ad.sigmoid, x0)
    check_grad(ad.softplus, x0)
    check_grad(ad.exp, x0)
    check_grad(ad.log, np.abs(x0) + 0.5)
    expo = rng.uniform(0.2, 3.0, size=(2, 3))
    check_grad(lambda t: pow_elem(t, Tensor(expo)), np.abs(x0) + 0.5)
    check_grad(lambda t: pow_elem(Tensor(np.abs(x0) + 0.5), t), x0)
    check_grad(lambda t: ad.tensor_mean(t, axis=0), x0)
    check_grad(lambda t: ad.tensor_sum(t, axis=1), x0)


def store_of(**arrays):
    """A ParamStore holding ``arrays`` under their keyword names, in order."""
    store = ParamStore([(name, np.shape(a)) for name, a in arrays.items()])
    for name, a in arrays.items():
        store.tensors[name].data[...] = a
    return store


class ReferenceAdam:
    """Per-tensor Adam with bias correction, one moment array per tensor:
    the algorithm the flat Adam replaced, kept as its oracle."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = [a.copy() for a in arrays]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros(a.shape) for a in arrays]
        self.v = [np.zeros(a.shape) for a in arrays]
        self.t = 0

    def step(self, grads):
        beta1, beta2 = self.beta1, self.beta2
        self.t += 1
        c1 = 1.0 - beta1 ** self.t
        c2 = 1.0 - beta2 ** self.t
        for i, p in enumerate(self.params):
            g = grads[i] if grads[i] is not None else np.zeros_like(p)
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestAdam:
    def test_first_step_direction(self):
        store = store_of(p=[1.0])
        p = store.tensors["p"]
        p.grad = np.array([0.5])
        Adam(store, lr=0.1).step()
        # bias-corrected m/sqrt(v) equals sign(g) for the first step
        assert p.data[0] == pytest.approx(1.0 - 0.1, rel=1e-6)

    def test_zero_grad_no_motion(self):
        store = store_of(p=[1.0, -2.0])
        p = store.tensors["p"]
        p.grad = np.zeros(2)
        Adam(store).step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            store = store_of(p=rng.normal(size=(3, 2)))
            p = store.tensors["p"]
            opt = Adam(store, lr=1e-2)
            for _ in range(10):
                opt.zero_grad()
                (p * p).sum().backward()
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    @pytest.mark.parametrize("block_bytes", [64, 1 << 18])
    def test_flat_matches_per_tensor_bits(self, monkeypatch, block_bytes):
        # blocks of 8 values split every tensor; the default block splits "big"
        monkeypatch.setattr(ad._kernels, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(11)
        shapes = {"w": (5, 3), "big": (200, 180), "b": (7,), "gap": (4, 2),
                  "zero": (3,), "negzero": (6,), "never": (2, 2), "one": (1,)}
        init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        init["negzero"][:3] = -0.0
        store = store_of(**init)
        opt = Adam(store, lr=3e-3)
        ref = ReferenceAdam(list(init.values()), lr=3e-3)
        for step in range(60):
            scale = 10.0 ** rng.integers(-6, 4)
            grads = {name: rng.normal(size=shape) * scale for name, shape in shapes.items()}
            grads["gap"] = None if step % 3 else grads["gap"]  # missing, then present
            grads["zero"] = np.zeros(3)
            grads["negzero"] = np.where(rng.random(6) < 0.5, -0.0, grads["negzero"])
            grads["never"] = None
            for name, t in store.tensors.items():
                t.grad = grads[name]
            opt.step()
            ref.step(list(grads.values()))
        for (name, t), expected in zip(store.tensors.items(), ref.params):
            np.testing.assert_array_equal(t.data.view(np.int64), expected.view(np.int64),
                                          err_msg=name)
            assert np.shares_memory(t.data, store.flat)
        np.testing.assert_array_equal(store.tensors["never"].data, init["never"])

    def test_grad_shape_checked(self):
        store = store_of(p=np.zeros((2, 3)))
        store.tensors["p"].grad = np.zeros((3, 2))
        with pytest.raises(ShapeMismatch):
            Adam(store).step()


class TestParamStore:
    def test_views_tile_the_flat_vector(self):
        store = ParamStore([("a", (2, 3)), ("b", (4,)), ("empty", (0,)), ("c", (1, 1))])
        assert store.flat.shape == (11,)
        assert list(store.tensors) == ["a", "b", "empty", "c"]
        store.flat[:] = np.arange(11.0)
        np.testing.assert_array_equal(store.tensors["a"].data, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(store.tensors["b"].data, [6, 7, 8, 9])
        assert store.tensors["c"].data.shape == (1, 1) and store.tensors["c"].data[0, 0] == 10
        assert all(t.requires_grad for t in store.tensors.values())
