import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlmolnet import autodiff as ad
from mtlmolnet.autodiff import (
    Adam,
    DeferredNonLeaf,
    DomainError,
    NonFiniteValue,
    NotScalar,
    ParamStore,
    ShapeMismatch,
    TapeConsumed,
    Tensor,
    add_relu,
    clamp,
    concat,
    message,
    pow_elem,
    scatter_add,
)

sys.path.insert(0, str(Path(__file__).parent))
from oracles import backward_keep_tape  # noqa: E402


# directed edges of the path 0-1-2: 0->1, 1->0, 1->2, 2->1
PATH_SRC, PATH_DST = np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])


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

    def test_message(self):
        # the path 0-1-2: edges 0->1, 1->0, 1->2, 2->1, each reverse beside it
        h = Tensor(np.array([[1.0], [10.0], [100.0], [1000.0]]))
        out = message(h, PATH_SRC, PATH_DST, 3)
        # into 0: 10; into 1: 1 + 1000; into 2: 100
        np.testing.assert_array_equal(out.data, [[10.0 - 10.0], [1001.0 - 1.0],
                                                 [1001.0 - 1000.0], [100.0 - 100.0]])

    def test_message_index_checked(self):
        h = Tensor(np.ones((4, 1)))
        for src, dst in [(PATH_SRC + 1, PATH_DST), (PATH_SRC, PATH_DST - 2),
                         (PATH_SRC, PATH_DST[:3])]:
            with pytest.raises(ShapeMismatch):
                message(h, src, dst, 3)

    def test_message_without_edges(self):
        out = message(Tensor(np.zeros((0, 3))), *(np.zeros(0, dtype=np.int64),) * 2, 2)
        assert out.data.shape == (0, 3)

    def test_add_relu(self):
        out = add_relu(Tensor([[1.0, -2.0, 0.5]]), Tensor([[-3.0, 1.0, 0.5]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 1.0]])
        with pytest.raises(ShapeMismatch):
            add_relu(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

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

    def test_nonfinite_aborts(self):
        with pytest.raises(NonFiniteValue), np.errstate(over="ignore"):
            ad.mul(Tensor(1e300), Tensor(1e300))

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

    def test_backward_through_a_consumed_tape_raises(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        z = y * 2.0
        z.backward()
        assert x.grad == 12.0
        with pytest.raises(TapeConsumed):
            y.backward()
        with pytest.raises(TapeConsumed):
            (y * 3.0).backward()
        assert x.grad == 12.0 and y.grad is None

    def test_backward_order_holds_only_nodes_with_a_backward(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        y = (ad.matmul(x, w) * 2.0).sum()
        order = ad._toposort(y)
        assert len(order) == 3 and all(n._backward_fn is not None for n in order)

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

    def test_no_tape_inside_no_grad(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with ad.no_grad():
            out = ad.relu(ad.matmul(x, w))
        assert out._parents == ()
        assert out._backward_fn is None
        assert not out.requires_grad
        recorded = ad.matmul(x, w)
        assert recorded._parents == (x, w)
        assert recorded._backward_fn is not None

    def test_fused_step_records_nothing_inside_no_grad(self):
        h = Tensor(np.ones((4, 2)), requires_grad=True)
        with ad.no_grad():
            msg = message(h, PATH_SRC, PATH_DST, 3)
            out = add_relu(h, msg)
        for t in (msg, out):
            assert t._parents == ()
            assert t._backward_fn is None
            assert not t.requires_grad
        recorded = message(h, PATH_SRC, PATH_DST, 3)
        assert recorded._parents == (h, h)
        assert add_relu(h, recorded)._parents == (h, recorded)

    def test_no_grad_keeps_the_values(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        with ad.no_grad():
            off = ad.softplus(ad.matmul(x, w)).data
        on = ad.softplus(ad.matmul(x, w)).data
        np.testing.assert_array_equal(off.view(np.int64), on.view(np.int64))

    def test_recording_resumes_after_no_grad_raised(self):
        x = Tensor(np.array([1e300]), requires_grad=True)
        with pytest.raises(NonFiniteValue), np.errstate(over="ignore"):
            with ad.no_grad():
                ad.mul(x, x)
        y = x * 2.0
        assert y.requires_grad and y._parents[0] is x
        y.backward()
        assert x.grad == 2.0

    def test_nested_no_grad_restores_the_outer_state(self):
        x = Tensor(1.0, requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x).requires_grad

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

    def test_scatter_add_grad(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 1, 0])
        w = rng.normal(size=(3, 3))  # weights make the reduction non-trivial

        def f(v):
            t = Tensor(v, requires_grad=True)
            return t, (scatter_add(t, idx, 3) * Tensor(w)).sum()

        t, loss = f(x0)
        loss.backward()
        num = finite_diff(lambda v: f(v)[1].data.item(), x0)
        np.testing.assert_allclose(t.grad, num, atol=1e-6)

    def test_message_grad(self):
        # a ring of four atoms with a tail atom on atom 0
        bonds = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]
        src = np.array([a for b in bonds for a in b])
        dst = np.array([a for b in bonds for a in b[::-1]])
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(len(src), 3))
        w = rng.normal(size=x0.shape)
        check_grad(lambda t: message(t, src, dst, 5) * Tensor(w), x0)

    def test_add_relu_grads(self):
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-2.0, 2.0, size=(4, 3))
        b0 = rng.uniform(-2.0, 2.0, size=(4, 3))
        b0[np.abs(a0 + b0) < 0.05] += 0.2  # keep away from the kink
        w = rng.normal(size=a0.shape)
        check_grad(lambda t: add_relu(t, Tensor(b0)) * Tensor(w), a0)
        check_grad(lambda t: add_relu(Tensor(a0), t) * Tensor(w), b0)
        a = Tensor(a0, requires_grad=True)
        add_relu(a, Tensor(b0)).sum().backward()
        np.testing.assert_array_equal(a.grad, a0 + b0 > 0)

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


def small_tape():
    """(root, leaves, intermediates) of a tape with message-passing steps,
    a shared node, a broadcast bias and a concat."""
    rng = np.random.default_rng(7)
    h0, w, b = (Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((4, 3), (3, 3), (3,)))
    inner = []

    def keep(t):
        inner.append(t)
        return t

    h = h0
    for _ in range(2):
        msg = keep(message(h, PATH_SRC, PATH_DST, 3))
        h = keep(add_relu(h0, keep(ad.matmul(msg, w))))
    pre = keep(ad.add(keep(ad.matmul(h, w)), b))
    y = keep(ad.mul(keep(ad.softplus(pre)), h))
    z = keep(concat([h, y], axis=1))
    root = keep(ad.add(keep(ad.tensor_sum(z)), keep(ad.tensor_sum(keep(ad.mul(y, 0.5))))))
    return root, (h0, w, b), inner


class TestReleasedTape:
    def test_only_leaves_keep_grad(self):
        root, leaves, inner = small_tape()
        root.backward()
        for t in inner:
            assert t.grad is None and t._parents == () and t._backward_fn is None
        assert all(leaf.grad is not None for leaf in leaves)

    def test_leaf_grads_match_a_kept_tape_bitwise(self):
        root, leaves, _ = small_tape()
        root.backward()
        kept_root, kept_leaves, kept_inner = small_tape()
        backward_keep_tape(kept_root)
        assert all(t.grad is not None for t in kept_inner)
        for leaf, kept in zip(leaves, kept_leaves):
            assert leaf.grad.view(np.int64).tolist() == kept.grad.view(np.int64).tolist()

    def test_backward_peak_stays_near_the_tape(self):
        # traced heap of a 20-op chain over 1000x100 arrays (800 kB each,
        # x86-64, numpy 2): tape 24.0 MB; backward peak 18.5 MB above it
        # while every node and gradient stayed alive, 1.8 MB once freed
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1000, 100)), requires_grad=True)
        w = Tensor(rng.normal(size=(100, 100)) * 0.1, requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = x
            for i in range(20):
                h = ad.relu(ad.matmul(h, w)) if i % 2 else ad.add(h, x)
            loss = h.sum()
            del h
            tape = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < tape + 4 * x.data.nbytes, (tape, peak)


def logged(name, parents, terms, log):
    """A node over ``parents`` whose backward appends ``name`` to ``log``
    and returns ``terms``, one per parent: an array, a deferred term or
    None."""
    data = np.array([sum(float(p.data.sum()) for p in parents)])

    def backward_fn(g):
        log.append(name)
        return terms

    return ad._make(data, name, tuple(parents), backward_fn)


def deferred(name, value, log):
    """A deferred term that appends ``name`` to ``log`` and returns ``value``."""
    def term():
        log.append(name)
        return value
    return term


class TestDeferredTerms:
    def test_runs_after_every_closure(self):
        log, one = [], np.ones(1)
        x, w = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        h1 = logged("h1", [x], [one], log)
        h2 = logged("h2", [h1, w], [one, deferred("w", np.array([3.0]), log)], log)
        logged("root", [h2], [one], log).backward()
        assert log == ["root", "h2", "h1", "w"]
        assert x.grad.tolist() == [1.0] and w.grad.tolist() == [3.0]

    def test_run_in_the_order_met(self):
        log, one = [], np.ones(1)
        w1, w2, w3 = (Tensor([0.0], requires_grad=True) for _ in range(3))
        a = logged("a", [w1], [deferred("w1", one, log)], log)
        b = logged("b", [a, w2, w3],
                   [one, deferred("w2", one, log), deferred("w3", one, log)], log)
        logged("root", [b], [one], log).backward()
        assert log == ["root", "b", "a", "w2", "w3", "w1"]

    def test_added_after_the_leafs_other_terms(self):
        # (1e16 + 1) - 1e16 is 0.0, while (1e16 - 1e16) + 1 is 1.0: the
        # deferred term, met first, is added last
        log = []
        w = Tensor([0.0], requires_grad=True)
        late = logged("late", [w], [np.array([1.0])], log)
        mid = logged("mid", [late, w], [np.ones(1), np.array([1e16])], log)
        top = logged("top", [mid, w], [np.ones(1), deferred("w", np.array([-1e16]), log)],
                     log)
        logged("root", [top], [np.ones(1)], log).backward()
        assert log == ["root", "top", "mid", "late", "w"]
        assert w.grad.tolist() == [0.0]

    def test_a_lone_term_is_the_leafs_grad(self):
        value, w = np.array([4.0]), Tensor([0.0], requires_grad=True)
        logged("root", [w], [deferred("w", value, [])], []).backward()
        assert w.grad is value

    def test_refused_for_a_parent_with_a_backward(self):
        log, x = [], Tensor([1.0], requires_grad=True)
        h = logged("h", [x], [np.ones(1)], log)
        root = logged("root", [h], [deferred("h", np.ones(1), log)], log)
        with pytest.raises(DeferredNonLeaf, match="only reach a leaf"):
            root.backward()
        assert "h" not in log and x.grad is None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gradcheck_elementwise_ops(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, size=(2, 3))
    check_grad(ad.relu, x0 + 0.01)  # keep away from the kink
    check_grad(ad.sigmoid, x0)
    check_grad(ad.softplus, x0)
    expo = rng.uniform(0.2, 3.0, size=(2, 3))
    check_grad(lambda t: pow_elem(t, Tensor(expo)), np.abs(x0) + 0.5)
    check_grad(lambda t: pow_elem(Tensor(np.abs(x0) + 0.5), t), x0)
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
        monkeypatch.setattr(ad, "_BLOCK_BYTES", block_bytes)
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

    def test_block_edges_on_tensor_boundaries_keep_bits(self, monkeypatch):
        # blocks of 8 values: "a" ends the first block exactly, "empty" sits on
        # that boundary between "a" and "b", and "c" ends the second block
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 64)
        rng = np.random.default_rng(12)
        shapes = {"a": (2, 4), "empty": (0,), "b": (3,), "c": (5,), "none": (0, 2),
                  "d": (3, 3), "tail": (2,)}
        init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        store = store_of(**init)
        opt = Adam(store, lr=2e-3)
        ref = ReferenceAdam(list(init.values()), lr=2e-3)
        for step in range(20):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3)
                     for name, shape in shapes.items()}
            grads["b"] = None if step % 2 else grads["b"]
            grads["c"][rng.random(5) < 0.4] = -0.0
            for name, t in store.tensors.items():
                t.grad = grads[name]
            opt.step()
            ref.step(list(grads.values()))
        for (name, t), expected in zip(store.tensors.items(), ref.params):
            np.testing.assert_array_equal(t.data.view(np.int64), expected.view(np.int64),
                                          err_msg=name)

    def test_holds_no_gradient_sized_array(self):
        store = ParamStore([("w", (300, 700)), ("b", (700,))])
        tracemalloc.start()
        try:
            Adam(store)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two moments, the three scratch rows and the block plan (a few
        # kB of Python objects), and no gradient copy: a third vector is 1.7 MB
        assert allocated <= 2 * store.flat.nbytes + 3 * ad._BLOCK_BYTES + (1 << 16)

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
