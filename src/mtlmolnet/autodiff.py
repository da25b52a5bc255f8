"""Reverse-mode automatic differentiation over dense float64 arrays.

A small eager engine: each operation computes its result with numpy and,
when an input tracks gradients, records a backward closure on the implicit
tape (the operation graph). ``Tensor.backward()`` walks the graph once in
reverse topological order and accumulates gradients into every
``requires_grad`` leaf. The walk frees each node once it has passed it
(its gradient, parents and closure), so only leaves keep ``grad``, and a
second backward through any node of a consumed tape raises
``TapeConsumed``. A closure may return, for a leaf parent, a zero-argument
callable instead of an array: a deferred term, which the walk calls after
the last node, in the order it met them, and adds after the leaf's other
terms. ``task_heads`` defers its weight gradients this way, so the heads'
largest gradient is formed after the encoder's backward, not held through
it. Operations whose inputs all have
``requires_grad=False`` record nothing, nor does any operation run under
``no_grad()``, as scoring and embedding do.

Every forward result is checked for NaN/Inf so numerical blowups fail at
the op that produced them rather than corrupting a training run; a large
output is screened by one self-dot over both cores first (``_check_finite``).
Reductions accumulate sequentially in index order, so single-threaded
results are bit-reproducible. ``scatter_add`` and ``message`` sum rows with
``_kernels.scatter_add_rows`` (one ``np.add.at``, four calls per depth-3
encode forward, two backward) after refusing indices outside ``[0, rows)``.

``message`` and ``add_relu`` are the two nodes of one message-passing step,
and ``task_heads`` runs every task head as one node; each has a hand-written
backward: one array per node stays on the tape, not one per elementary op,
and the bits are those of the elementary ops. ``message`` reads each edge's
reverse as the pair-swapped view of its input, since the directed edges
come in pairs (the reverse of edge e is e ^ 1), so no reverse index exists.

``relu`` and ``add_relu`` take ``out=``, in numpy's style: it may name only
the op's last input, which the result then overwrites with the same bits.
The encoder passes it for matmul outputs, which no backward reads (matmul's
backward reads its inputs), so a tape keeps one array per activation, not
two. A leaf parameter or any other Tensor is refused as ``out`` with
``InvalidOut``.

A model's parameters live in a ``ParamStore``: one flat float64 vector
whose reshaped views are the leaf Tensors' ``data``. ``Adam`` runs in place
over that vector with flat moments, and reads each block's gradient from
the leaves' ``grad`` slices, so it holds no gradient-sized array.
"""

import contextlib
import functools
import itertools
import math

import numpy as np

from . import _kernels


class AutodiffError(Exception):
    """Base class for tensor engine failures."""


class ShapeMismatch(AutodiffError):
    pass


class DomainError(AutodiffError):
    pass


class NotScalar(AutodiffError):
    pass


class TapeConsumed(AutodiffError):
    pass


class NonFiniteValue(AutodiffError):
    pass


class InvalidOut(AutodiffError):
    pass


class DeferredNonLeaf(AutodiffError):
    pass


class Tensor:
    """Dense float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Populate ``grad`` on every requires_grad leaf below this scalar.

        The walk frees the tape as it goes: each node is popped off the
        topological order, and its gradient, parents and closure are taken
        off it before the closure runs. So a node's output and gradient are
        freed once nothing else holds them, and only leaves keep ``grad``.
        A closure may return a zero-argument callable, a deferred term, in
        place of a leaf parent's gradient. The walk calls each after the
        last node, in the order it met them, and adds its array after that
        leaf's other terms, so a term that only a leaf reads is not formed
        while the rest of the tape still holds its arrays. A deferred term
        for a parent with a backward raises DeferredNonLeaf.

        Raises NotScalar for a non-scalar root and TapeConsumed when the
        tape below this root holds a node an earlier backward freed.
        """
        if self.data.size != 1:
            raise NotScalar(f"backward root must be scalar, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        deferred = []  # (leaf, term), in the order the walk met them
        while order:
            node = order.pop()
            fn, parents, g = node._backward_fn, node._parents, node.grad
            if fn is None:
                continue
            node._backward_fn, node._parents, node.grad = None, (), None
            node._consumed = True
            if g is None:
                continue
            grads, g = fn(g), None  # the incoming gradient goes before the sums
            for parent, pg in zip(parents, grads):
                if pg is None:
                    continue
                if callable(pg):
                    if parent._backward_fn is not None:
                        raise DeferredNonLeaf("backward: a deferred term may only "
                                              "reach a leaf")
                    deferred.append((parent, pg))
                    continue
                parent.grad = pg if parent.grad is None else parent.grad + pg
        for leaf, term in deferred:
            pg = term()
            leaf.grad = pg if leaf.grad is None else leaf.grad + pg

    # operator sugar over the module-level functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self, axis=None):
        return tensor_sum(self, axis)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._consumed:
            raise TapeConsumed("backward already ran through this tape")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            # leaves and constants have no backward; a consumed node must raise
            if id(p) not in seen and (p._backward_fn is not None or p._consumed):
                stack.append((p, False))
    return order


_DOT_SCAN_MIN = 1 << 16  # elements from which _check_finite screens by a self-dot


def _check_finite(data, op, inputs):
    """Raise NonFiniteValue, naming ``op``, the count of non-finite values
    and the shapes of ``inputs``, when ``data`` holds a NaN or an infinity.

    A contiguous array of at least ``_DOT_SCAN_MIN`` elements is screened
    first by one BLAS self-dot ``v @ v`` of its flat view, which OpenBLAS
    splits over the cores. Squares cannot cancel, so a finite dot means
    every element is finite; only a non-finite dot (a non-finite element,
    or finite ones whose squares overflow) runs the elementwise scan that
    decides. Smaller or non-contiguous arrays get the elementwise scan
    alone, without a copy.

    The constant is the measured crossover. Back to back on 2 cores the
    dot wins from about 2^14 elements, but between the Python-bound ops of
    train-small (batch outputs near 2^13 elements, validation near 2^15)
    2^14 made ``model.train`` 1.9 % slower than 2^16, and the dot on every
    output 1.3 % slower (each in 9 of 12 pairs); 2^18 was even with 2^16.
    """
    if data.size >= _DOT_SCAN_MIN and data.flags.forc:
        flat = data.ravel(order="K")
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(flat @ flat):
                return
    if not np.isfinite(data).all():
        n_bad = int(data.size - np.count_nonzero(np.isfinite(data)))
        shapes = ", ".join(str(x.shape) for x in inputs)
        raise NonFiniteValue(
            f"{op} produced {n_bad} non-finite value(s) (input shapes: {shapes})"
        )


_recording = True  # False inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Within the block, operations record no parents and no backward
    closure, so each intermediate array is freed as soon as nothing else
    holds it. Recording resumes when the block ends, also by an error."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _make(data, op, parents, backward_fn, inputs=None):
    """The Tensor of ``data``, recorded with its parents and backward when
    any parent tracks gradients; a non-finite value raises, naming ``op``
    and the shapes of ``inputs`` (the parents by default)."""
    data = np.asarray(data, dtype=np.float64)
    _check_finite(data, op, parents if inputs is None else inputs)
    return _record(data, parents, backward_fn)


def _record(data, parents, backward_fn):
    """The Tensor of an already checked float64 ``data``, recorded as in
    ``_make``."""
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad, shape):
    """Sum grad down to ``shape`` to invert numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = _lift(a), _lift(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add: {a.data.shape} vs {b.data.shape}") from None
    a_req, b_req = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward_fn(g):
        return (
            _unbroadcast(g, a_shape) if a_req else None,
            _unbroadcast(g, b_shape) if b_req else None,
        )

    return _make(data, "add", (a, b), backward_fn)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeMismatch(f"sub: {a.data.shape} vs {b.data.shape}") from None
    a_req, b_req = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward_fn(g):
        return (
            _unbroadcast(g, a_shape) if a_req else None,
            _unbroadcast(-g, b_shape) if b_req else None,
        )

    return _make(data, "sub", (a, b), backward_fn)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatch(f"mul: {a.data.shape} vs {b.data.shape}") from None
    a_req, b_req = a.requires_grad, b.requires_grad
    ad, bd = a.data, b.data

    def backward_fn(g):
        return (
            _unbroadcast(g * bd, ad.shape) if a_req else None,
            _unbroadcast(g * ad, bd.shape) if b_req else None,
        )

    return _make(data, "mul", (a, b), backward_fn)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    a_req, b_req = a.requires_grad, b.requires_grad
    ad, bd = a.data, b.data

    def backward_fn(g):
        return (
            g @ bd.T if a_req else None,
            ad.T @ g if b_req else None,
        )

    return _make(data, "matmul", (a, b), backward_fn)


def tensor_sum(x, axis=None):
    x = _lift(x)
    if axis is not None and not (-x.data.ndim <= axis < x.data.ndim):
        raise ShapeMismatch(f"sum: axis {axis} out of range for shape {x.data.shape}")
    data = x.data.sum(axis=axis)
    x_shape = x.data.shape

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, x_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x_shape).copy(),)

    return _make(data, "sum", (x,), backward_fn)


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ShapeMismatch("concat of zero tensors")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as err:
        raise ShapeMismatch(f"concat: {err}") from None
    lead = (slice(None),) * (axis % data.ndim)
    sizes = [t.data.shape[axis] for t in tensors]
    parts = [lead + (slice(end - size, end),)
             for size, end in zip(sizes, itertools.accumulate(sizes))]
    reqs = [t.requires_grad for t in tensors]

    def backward_fn(g):
        return tuple(g[part] if r else None for part, r in zip(parts, reqs))

    return _make(data, "concat", tuple(tensors), backward_fn)


def scatter_add(x, index, num_rows):
    """Scatter rows: out[index[i]] += x[i], out has ``num_rows`` rows.

    This is the aggregation primitive for message passing; duplicate
    indices accumulate sequentially in row order.
    """
    x = _lift(x)
    if x.data.ndim != 2:
        raise ShapeMismatch(f"scatter_add expects a 2-D tensor, got {x.data.shape}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != x.data.shape[0]:
        raise ShapeMismatch(
            f"scatter_add index shape {idx.shape} does not match {x.data.shape[0]} rows"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise ShapeMismatch("scatter_add index out of range")
    out = np.zeros((num_rows, x.data.shape[1]))
    _kernels.scatter_add_rows(x.data, idx, out)

    def backward_fn(g):
        return (g[idx],)

    return _make(out, "scatter_add", (x,), backward_fn)


def _out_data(op, out, last):
    """The array an op named ``op`` writes over: ``last.data`` when ``out``
    is its last input ``last``, None when ``out`` is None. Any other
    ``out``, or a leaf that tracks gradients (a parameter), is refused."""
    if out is None:
        return None
    if out is not last:
        raise InvalidOut(f"{op}: out= may name only the op's last input")
    if last.requires_grad and last._backward_fn is None:
        raise InvalidOut(f"{op}: out= may not name a leaf that tracks gradients")
    return last.data


def relu(x, *, out=None):
    """max(x, 0). With ``out=x`` the result is written over x's buffer, in
    numpy's style, with the same bits; pass it only for an x no backward
    reads, such as a fresh matmul output."""
    x = _lift(x)
    data = np.maximum(x.data, 0.0, out=_out_data("relu", out, x))

    def backward_fn(g):
        return (g * (data > 0),)

    return _make(data, "relu", (x,), backward_fn)


def _reverse_pairs(x):
    """An [E/2 x 2 x H] view of the [E x H] array ``x`` with each pair of
    rows swapped: read flat, its row e is row e ^ 1 of ``x``, the reverse
    of directed edge e in the layout of ``smiles._directed_edges``."""
    return x.reshape(-1, 2, x.shape[1])[:, ::-1]


def message(h, src, dst, num_atoms):
    """One directed-edge message step as one node: edge e (v->w) receives
    the sum of the states of the edges pointing into v, less the state of
    its own reverse edge, ``incoming[src[e]] - h[e ^ 1]`` with
    ``incoming = scatter_add(h, dst, num_atoms)``. The edges come in
    reverse pairs (edge 2i+1 reverses edge 2i), so the reverse edge is the
    pair-swapped view of ``h``, and an odd edge count is refused.

    Forward and backward give the bits of scatter_add, two row gathers and
    sub. Both parents are ``h``, so the gradient through ``incoming`` and
    the one through the reverse edge reach ``h.grad`` as two terms, in that
    order; one combined term, or the other order, changes the last bits.
    """
    h = _lift(h)
    n_edges = h.data.shape[0]
    if n_edges % 2:
        raise ShapeMismatch(f"message: {n_edges} edges do not pair into reverse edges")
    for idx in (src, dst):
        if idx.shape != (n_edges,) or (n_edges and (idx.min() < 0 or idx.max() >= num_atoms)):
            raise ShapeMismatch(f"message: an index does not fit {n_edges} edges "
                                f"and {num_atoms} atoms")
    incoming = np.zeros((num_atoms, h.data.shape[1]))
    _kernels.scatter_add_rows(h.data, dst, incoming)
    data = incoming[src]
    pairs = data.reshape(-1, 2, data.shape[1])
    np.subtract(pairs, _reverse_pairs(h.data), out=pairs)

    def backward_fn(g):
        grad_incoming = np.zeros((num_atoms, g.shape[1]))
        _kernels.scatter_add_rows(g, src, grad_incoming)
        # 0.0 - x has the bits, signed zeros included, of scattering -g
        # into zeros by the reverse edge
        return grad_incoming[dst], (0.0 - _reverse_pairs(g)).reshape(g.shape)

    return _make(data, "message", (h, h), backward_fn)


def add_relu(a, b, *, out=None):
    """relu(a + b) for two arrays of one shape, as one node with one mask
    for both gradients. The sum is checked before relu, which maps an
    overflow to -inf to 0; the output is then finite. With ``out=b`` the
    result is written over b's buffer, as ``relu``'s ``out=``."""
    a, b = _lift(a), _lift(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"add_relu: {a.data.shape} vs {b.data.shape}")
    data = np.add(a.data, b.data, out=_out_data("add_relu", out, b))
    _check_finite(data, "add_relu", (a, b))
    np.maximum(data, 0.0, out=data)
    a_req, b_req = a.requires_grad, b.requires_grad

    def backward_fn(g):
        g = g * (data > 0)
        return (g if a_req else None, g if b_req else None)

    return _record(data, (a, b), backward_fn)


def task_heads(x, w1, b1, w2, b2, leaves):
    """Logits [B x T] of T two-layer heads on one input x [B x D], as one
    node: column t is relu(x @ w1[t] + b1[t]) @ w2[t] + b2[t], for arrays
    w1 [T x D x F], b1 [T x F], w2 [T x F] and b2 [T]. The node's other
    parents, ``leaves``, are w1, b1, w2 and b2 of each head in turn, the
    Tensors whose data are the slices t of those arrays; each gets a view of
    the stacked gradient.

    Every product is one GEMM per head, so forward and backward give the
    bits of the per-head matmul/add/relu/concat composition. Three layouts
    keep them: x's gradient adds the heads' terms one at a time from head
    0; w2's gradient reads each column of g in place, with the row stride
    concat's backward handed each head; b2's gradient sums the rows of a
    contiguous [T x B] copy of g. The pre-activation is checked as well as
    the logits, since relu maps an overflow to 0.

    Backward returns x's, b1's, w2's and b2's gradients as arrays, and each
    w1's as a deferred term (see ``Tensor.backward``): the first one called
    forms the stacked [T x D x F] gradient by one ``np.matmul(x.T,
    g_hidden)``, and each returns its head's slice. So the walk holds only
    x and the hidden gradient [T x B x F] through the rest of the tape, not
    the stacked gradient, the largest of the heads at the paper's widths.
    """
    x = _lift(x)
    if x.data.ndim != 2 or x.data.shape[1] != w1.shape[1]:
        raise ShapeMismatch(f"task_heads: input {x.data.shape} for heads {w1.shape}")
    inputs = (x, w1, b1, w2, b2)
    hidden = np.matmul(x.data, w1)
    hidden += b1[:, None, :]
    _check_finite(hidden, "task_heads", inputs)
    np.maximum(hidden, 0.0, out=hidden)
    out = np.matmul(hidden, w2[..., None])[..., 0]
    out += b2[:, None]
    data = np.ascontiguousarray(out.T)
    xd, x_req = x.data, x.requires_grad
    reqs = [p.requires_grad for p in leaves]

    def backward_fn(g):
        g_cols = g.T[..., None]
        g_hidden = np.matmul(g_cols, w2[:, None, :])
        g_hidden *= hidden > 0
        dx = None
        if x_req:
            terms = np.matmul(g_hidden, w1.transpose(0, 2, 1))
            dx = terms[0]
            for term in terms[1:]:
                dx = dx + term
        db1 = g_hidden.sum(axis=1)
        dw2 = np.matmul(hidden.transpose(0, 2, 1), g_cols)
        db2 = np.ascontiguousarray(g.T).sum(axis=1)
        dw1 = []  # the stacked gradient, once the first deferred term formed it

        def dw1_of(t):
            if not dw1:
                dw1.append(np.matmul(xd.T, g_hidden))
            return dw1[0][t]

        grads = [dx]
        for t in range(len(db2)):
            grads += (functools.partial(dw1_of, t), db1[t], dw2[t], db2[t:t + 1])
        return [pg if r else None for pg, r in zip(grads, (x_req, *reqs))]

    return _make(data, "task_heads", (x, *leaves), backward_fn, inputs)


def _logistic(xd):
    """(1 / (1 + e^-x), e^-|x|) for an array, in the overflow-safe form that
    divides by 1 + e^-|x| on both sides of 0."""
    e = np.exp(-np.abs(xd))
    return np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), e


def sigmoid(x):
    x = _lift(x)
    data = _logistic(x.data)[0]

    def backward_fn(g):
        return (g * data * (1.0 - data),)

    return _make(data, "sigmoid", (x,), backward_fn)


def softplus(x):
    """ln(1 + e^x) in the overflow-safe form max(x, 0) + log1p(e^-|x|)."""
    x = _lift(x)
    sig, e = _logistic(x.data)
    data = np.maximum(x.data, 0.0) + np.log1p(e)

    def backward_fn(g):
        return (g * sig,)

    return _make(data, "softplus", (x,), backward_fn)


def pow_elem(base, exponent):
    """Elementwise base**exponent for base > 0, via exp(exponent * ln base).

    Gradients: d/dbase = exponent * base**(exponent-1),
    d/dexponent = base**exponent * ln(base).
    """
    b, e = _lift(base), _lift(exponent)
    if np.any(b.data <= 0):
        raise DomainError("pow_elem requires a strictly positive base")
    logb = np.log(b.data)
    try:
        data = np.exp(e.data * logb)
    except ValueError:
        raise ShapeMismatch(f"pow_elem: {b.data.shape} vs {e.data.shape}") from None
    b_req, e_req = b.requires_grad, e.requires_grad
    bd = b.data

    def backward_fn(g):
        return (
            _unbroadcast(g * e.data * data / bd, bd.shape) if b_req else None,
            _unbroadcast(g * data * logb, e.data.shape) if e_req else None,
        )

    return _make(data, "pow_elem", (b, e), backward_fn)


def clamp(x, lo, hi):
    """Clip to [lo, hi]; gradient passes only where lo < x < hi."""
    x = _lift(x)
    data = np.clip(x.data, lo, hi)
    active = (x.data > lo) & (x.data < hi)

    def backward_fn(g):
        return (g * active,)

    return _make(data, "clamp", (x,), backward_fn)


class ParamStore:
    """Parameter Tensors whose ``data`` are views into one flat float64
    vector, in the order of ``shapes``, a list of ``(name, shape)``. The
    vector is ``flat`` when given (a checkpoint loader reads into it, so it
    need not be zeroed first), else a new zero vector; ``starts`` maps each
    name to its offset there. A snapshot is ``flat.copy()`` and a restore
    ``flat[...] = snapshot``; the views are never rebound."""

    def __init__(self, shapes, flat=None):
        sizes = [math.prod(shape) for _, shape in shapes]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        ends = list(itertools.accumulate(sizes))
        self.starts = {name: end - size for (name, _), size, end in zip(shapes, sizes, ends)}
        self.tensors = {name: Tensor(self.flat[end - size:end].reshape(shape),
                                     requires_grad=True)
                        for (name, shape), size, end in zip(shapes, sizes, ends)}


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
_BLOCK_BYTES = 1 << 18  # Adam's block: its three slices and three scratch rows stay in cache


class Adam:
    """Adam with bias correction, in place over the flat vector of a
    ParamStore; a missing grad counts as zero. The moments ``m``/``v`` are
    flat vectors too. A step runs in blocks of ``_BLOCK_BYTES`` that stay
    in cache: each block's gradient is copied from the leaves' ``grad``
    slices into a scratch row, and a per-tensor Adam's elementwise
    arithmetic runs on it in the same order, so the bits are the same at
    any block size."""

    def __init__(self, store, lr=1e-3):
        self.params = list(store.tensors.values())
        self.flat = store.flat
        self.lr = lr
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.t = 0
        block, size = _BLOCK_BYTES // 8, self.flat.size
        self._scratch = np.zeros((3, min(block, size)))  # a small store needs less
        # per block: its bounds and, for each tensor with values in it,
        # (tensor index, slice of the block, slice of the tensor's flat view)
        self._plan = []
        bounds = [(s, s + p.data.size) for s, p in zip(store.starts.values(), self.params)]
        for lo in range(0, size, block):
            hi = min(lo + block, size)
            self._plan.append((lo, hi, [(k, slice(max(s, lo) - lo, min(e, hi) - lo),
                                         slice(max(s, lo) - s, min(e, hi) - s))
                                        for k, (s, e) in enumerate(bounds)
                                        if max(s, lo) < min(e, hi)]))

    def step(self):
        grads = []  # every shape is checked before any update
        for param in self.params:
            g = param.grad
            if g is not None and g.shape != param.data.shape:
                raise ShapeMismatch(f"Adam: param {param.data.shape} vs grad {g.shape}")
            grads.append(None if g is None else g.reshape(-1))
        beta1, beta2 = ADAM_BETA1, ADAM_BETA2
        self.t += 1
        c1 = 1.0 - beta1 ** self.t
        c2 = 1.0 - beta2 ** self.t
        for lo, hi, parts in self._plan:
            p, m, v = (x[lo:hi] for x in (self.flat, self.m, self.v))
            a, b, g = self._scratch[:, :hi - lo]
            for k, into, part in parts:
                g[into] = 0.0 if grads[k] is None else grads[k][part]
            m *= beta1  # m = beta1 * m + (1 - beta1) * g
            np.multiply(g, 1.0 - beta1, out=a)
            m += a
            v *= beta2  # v = beta2 * v + (1 - beta2) * (g * g)
            np.multiply(g, g, out=a)
            a *= 1.0 - beta2
            v += a
            np.divide(v, c2, out=a)  # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(m, c1, out=b)
            b *= self.lr
            b /= a
            p -= b

    def zero_grad(self):
        for p in self.params:
            p.grad = None
