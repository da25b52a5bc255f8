"""Reverse-mode automatic differentiation over dense float64 arrays.

A small eager engine: each operation computes its result with numpy and,
when an input tracks gradients, records a backward closure on the implicit
tape (the operation graph). ``Tensor.backward()`` walks the graph once in
reverse topological order and accumulates gradients into every
``requires_grad`` leaf. Operations whose inputs all have
``requires_grad=False`` record nothing.

Every forward result is checked for NaN/Inf so numerical blowups fail at
the op that produced them rather than corrupting a training run.
Reductions accumulate sequentially in index order, so single-threaded
results are bit-reproducible. ``scatter_add`` and the backward pass of
``index_select`` aggregate rows with ``_kernels.scatter_add_rows``, a
pure-numpy kernel that adds duplicate indices in row order and so matches
``np.add.at`` bit for bit.
"""

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

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate ``grad`` on every requires_grad ancestor of this scalar.

        Raises NotScalar for non-scalar tensors and TapeConsumed on a second
        backward through the same root.
        """
        if self.data.size != 1:
            raise NotScalar(f"backward root must be scalar, got shape {self.data.shape}")
        if self._consumed:
            raise TapeConsumed("backward already ran from this tensor")
        self._consumed = True
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            fn = node._backward_fn
            if fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, fn(node.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
            # release the closure so intermediate arrays can be collected
            node._backward_fn = None
            node._parents = ()

    # operator sugar over the module-level functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tensor_sum(self, axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis)

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    def softplus(self):
        return softplus(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)


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
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _check_finite(data, op, parents):
    if not np.all(np.isfinite(data)):
        n_bad = int(data.size - np.count_nonzero(np.isfinite(data)))
        shapes = ", ".join(str(p.data.shape) for p in parents)
        raise NonFiniteValue(
            f"{op} produced {n_bad} non-finite value(s) (input shapes: {shapes})"
        )


def _make(data, op, parents, backward_fn):
    data = np.asarray(data, dtype=np.float64)
    _check_finite(data, op, parents)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
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
    x_req = x.requires_grad
    x_shape = x.data.shape

    def backward_fn(g):
        if not x_req:
            return (None,)
        if axis is None:
            return (np.broadcast_to(g, x_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x_shape).copy(),)

    return _make(data, "sum", (x,), backward_fn)


def tensor_mean(x, axis=None):
    x = _lift(x)
    if axis is not None and not (-x.data.ndim <= axis < x.data.ndim):
        raise ShapeMismatch(f"mean: axis {axis} out of range for shape {x.data.shape}")
    n = x.data.size if axis is None else x.data.shape[axis]
    if n == 0:
        raise ShapeMismatch("mean over empty axis")
    data = x.data.sum(axis=axis) / n
    x_req = x.requires_grad
    x_shape = x.data.shape

    def backward_fn(g):
        if not x_req:
            return (None,)
        if axis is None:
            return (np.broadcast_to(g / n, x_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g / n, axis), x_shape).copy(),)

    return _make(data, "mean", (x,), backward_fn)


def concat(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ShapeMismatch("concat of zero tensors")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as err:
        raise ShapeMismatch(f"concat: {err}") from None
    sizes = [t.data.shape[axis] for t in tensors]
    reqs = [t.requires_grad for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(p if r else None for p, r in zip(parts, reqs))

    return _make(data, "concat", tuple(tensors), backward_fn)


def index_select(x, index):
    """Gather rows: out[i] = x[index[i]]. 2-D input only."""
    x = _lift(x)
    if x.data.ndim != 2:
        raise ShapeMismatch(f"index_select expects a 2-D tensor, got {x.data.shape}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatch(f"index_select index must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ShapeMismatch("index_select index out of range")
    data = x.data[idx]
    x_req = x.requires_grad
    x_shape = x.data.shape

    def backward_fn(g):
        if not x_req:
            return (None,)
        acc = np.zeros(x_shape)
        _kernels.scatter_add_rows(g, idx, acc)
        return (acc,)

    return _make(data, "index_select", (x,), backward_fn)


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
    x_req = x.requires_grad

    def backward_fn(g):
        return (g[idx] if x_req else None,)

    return _make(out, "scatter_add", (x,), backward_fn)


def relu(x):
    x = _lift(x)
    data = np.maximum(x.data, 0.0)
    x_req = x.requires_grad
    mask = x.data > 0

    def backward_fn(g):
        return (g * mask if x_req else None,)

    return _make(data, "relu", (x,), backward_fn)


def sigmoid(x):
    x = _lift(x)
    xd = x.data
    data = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-np.abs(xd))), np.exp(-np.abs(xd)) / (1.0 + np.exp(-np.abs(xd))))
    x_req = x.requires_grad

    def backward_fn(g):
        return (g * data * (1.0 - data) if x_req else None,)

    return _make(data, "sigmoid", (x,), backward_fn)


def softplus(x):
    """ln(1 + e^x) in the overflow-safe form max(x, 0) + log1p(e^-|x|)."""
    x = _lift(x)
    xd = x.data
    data = np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd)))
    x_req = x.requires_grad
    sig = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-np.abs(xd))), np.exp(-np.abs(xd)) / (1.0 + np.exp(-np.abs(xd))))

    def backward_fn(g):
        return (g * sig if x_req else None,)

    return _make(data, "softplus", (x,), backward_fn)


def exp(x):
    x = _lift(x)
    with np.errstate(over="ignore"):  # overflow becomes inf, caught below
        data = np.exp(x.data)
    x_req = x.requires_grad

    def backward_fn(g):
        return (g * data if x_req else None,)

    return _make(data, "exp", (x,), backward_fn)


def log(x):
    x = _lift(x)
    if np.any(x.data <= 0):
        raise DomainError("log requires strictly positive input")
    data = np.log(x.data)
    x_req = x.requires_grad
    xd = x.data

    def backward_fn(g):
        return (g / xd if x_req else None,)

    return _make(data, "log", (x,), backward_fn)


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
    x_req = x.requires_grad
    active = (x.data > lo) & (x.data < hi)

    def backward_fn(g):
        return (g * active if x_req else None,)

    return _make(data, "clamp", (x,), backward_fn)


class Adam:
    """Adam with bias correction over a list of parameter Tensors, whose
    ``data`` is updated in place; a missing grad counts as zero. The first
    and second moments ``m``/``v`` and the step count ``t`` live here."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]
        self.t = 0

    def step(self):
        beta1, beta2 = self.beta1, self.beta2
        self.t += 1
        c1 = 1.0 - beta1 ** self.t
        c2 = 1.0 - beta2 ** self.t
        for i, param in enumerate(self.params):
            p = param.data
            g = param.grad if param.grad is not None else np.zeros_like(p)
            if p.shape != g.shape:
                raise ShapeMismatch(f"Adam: param {p.shape} vs grad {g.shape}")
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
