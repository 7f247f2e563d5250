"""Minimal reverse-mode autodiff over numpy arrays.

Every op builds a node in an implicit DAG; ``backward(loss)`` walks the
graph once in reverse topological order and accumulates gradients into
``.grad``. Two precision modes are supported: float64 (tight tolerances,
used by the test suite) and float32 (training speed). Stochastic ops take
an explicit ``numpy.random.Generator``; there is no global RNG.
"""

import contextlib

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True
_FINITE_CHECKS = False


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonScalarLossError(ValueError):
    """backward() was asked to differentiate a non-scalar node."""


def set_default_dtype(dtype):
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype ('float32' or 'float64')."""
    global _DEFAULT_DTYPE
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (sampling / evaluation paths)."""
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


def set_finite_checks(enabled):
    """Debug assertion: verify every op output is finite."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, op="leaf"):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward
        self.op = op
        if _FINITE_CHECKS and not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"non-finite values produced by op '{op}'")

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward, op):
    if not _GRAD_ENABLED:
        return Tensor(data, op=op)
    req = any(p.requires_grad for p in parents)
    if not req:
        return Tensor(data, op=op)
    return Tensor(data, requires_grad=True, parents=parents, backward=backward, op=op)


def _accum(t, g):
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {t.data.shape}")
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum a gradient down to the original (possibly broadcast) shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def toposort(root):
    """Topological order of the DAG rooted at ``root`` (iterative DFS)."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate ``.grad`` for every leaf tensor the scalar ``loss`` depends on.

    An intermediate node's gradient is dropped once it has been passed to its
    parents, so the sweep holds only the gradients still to be propagated."""
    if loss.data.size != 1:
        raise NonScalarLossError(f"loss must be scalar, got shape {loss.data.shape}")
    order = toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bwd, "add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bwd, "sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd, "mul")


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def bwd(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), bwd, "div")


def power(a, p):
    a = as_tensor(a)
    p = float(p)
    out_data = a.data**p

    def bwd(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    return _make(out_data, (a,), bwd, "pow")


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bwd(g):
        _accum(a, g * out_data)

    return _make(out_data, (a,), bwd, "exp")


def log(a):
    a = as_tensor(a)
    out_data = np.log(a.data)

    def bwd(g):
        _accum(a, g / a.data)

    return _make(out_data, (a,), bwd, "log")


def sqrt(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def bwd(g):
        _accum(a, g * 0.5 / out_data)

    return _make(out_data, (a,), bwd, "sqrt")


def sigmoid(a):
    a = as_tensor(a)
    # stable on both tails
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                        np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    out_data = out_data.astype(a.data.dtype, copy=False)

    def bwd(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bwd, "sigmoid")


def silu(a):
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out_data = a.data * s

    def bwd(g):
        _accum(a, g * (s * (1.0 + a.data * (1.0 - s))))

    return _make(out_data, (a,), bwd, "silu")


def relu(a):
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def bwd(g):
        _accum(a, g * (a.data > 0))

    return _make(out_data, (a,), bwd, "relu")


def softplus(a):
    """log(1 + exp(a)), computed stably."""
    a = as_tensor(a)
    out_data = np.logaddexp(0.0, a.data).astype(a.data.dtype, copy=False)

    def bwd(g):
        _accum(a, g / (1.0 + np.exp(-a.data)))

    return _make(out_data, (a,), bwd, "softplus")


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape).astype(a.data.dtype, copy=False))

    return _make(out_data, (a,), bwd, "sum")


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])

    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(g / count, a.data.shape).astype(a.data.dtype, copy=False))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg / count, a.data.shape).astype(a.data.dtype, copy=False))

    return _make(out_data, (a,), bwd, "mean")


def reshape(a, shape):
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), bwd, "reshape")


def transpose(a, axes):
    a = as_tensor(a)
    out_data = a.data.transpose(axes)
    inv = np.argsort(axes)

    def bwd(g):
        _accum(a, g.transpose(inv))

    return _make(out_data, (a,), bwd, "transpose")


def swapaxes(a, ax1, ax2):
    axes = list(range(as_tensor(a).ndim))
    axes[ax1], axes[ax2] = axes[ax2], axes[ax1]
    return transpose(a, axes)


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(out_data, tuple(tensors), bwd, "concat")


def take(a, idx):
    """numpy-style indexing; gradient scatters back with np.add.at."""
    a = as_tensor(a)
    out_data = a.data[idx]

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        _accum(a, buf)

    return _make(out_data, (a,), bwd, "take")


# ---------------------------------------------------------------------------
# linear algebra and nn primitives


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accum(a, _unbroadcast(ga, a.data.shape))
        _accum(b, _unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), bwd, "matmul")


def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, (g - dot) * out_data)

    return _make(out_data, (a,), bwd, "softmax")


def layer_norm(a, gain, bias, axis=-1, eps=1e-5):
    """Normalize over one axis with learned gain/bias (fused primitive)."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    ax = axis % a.ndim
    n = a.data.shape[ax]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({n},), got {gain.data.shape} and {bias.data.shape}")
    bshape = tuple(n if i == ax else 1 for i in range(a.ndim))
    mu = a.data.mean(axis=ax, keepdims=True)
    centered = a.data - mu
    var = np.mean(centered * centered, axis=ax, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out_data = xhat * gain.data.reshape(bshape) + bias.data.reshape(bshape)
    reduce_axes = tuple(i for i in range(a.ndim) if i != ax)

    def bwd(g):
        if gain.requires_grad:
            _accum(gain, (g * xhat).sum(axis=reduce_axes))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=reduce_axes))
        if a.requires_grad:
            gy = g * gain.data.reshape(bshape)
            term = gy - gy.mean(axis=ax, keepdims=True) \
                - xhat * (gy * xhat).mean(axis=ax, keepdims=True)
            _accum(a, inv * term)

    return _make(out_data, (a, gain, bias), bwd, "layer_norm")


def embedding(table, ids):
    """Row lookup ``table[ids]``; gradient is a scatter-add over rows."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"embedding ids must be integers, got dtype {ids.dtype}")
    out_data = table.data[ids]

    def bwd(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        _accum(table, buf)

    return _make(out_data, (table,), bwd, "embedding")


def dropout(a, rate, train, rng, draw_len=None):
    """Inverted dropout. rate=0 or train=False is the identity.

    ``draw_len`` draws the mask that long on axis -2 and keeps its last
    ``a.shape[-2]`` positions: a left-padded batch trimmed to its longest row
    passes its untrimmed length, so the generator advances as at full width
    and the kept entries are the same numbers whatever the trim."""
    a = as_tensor(a)
    if not train or rate == 0.0:
        return a
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    shape = a.data.shape
    full = shape if draw_len is None else shape[:-2] + (draw_len, shape[-1])
    keep = (rng.random(full) >= rate)[tuple(slice(f - n, None) for f, n in zip(full, shape))]
    keep = (keep / (1.0 - rate)).astype(a.data.dtype)
    out_data = a.data * keep

    def bwd(g):
        _accum(a, g * keep)

    return _make(out_data, (a,), bwd, "dropout")


def scaled_dot_attention(q, k, v, mask=None):
    """softmax(q kᵀ / sqrt(d) + mask) v over the last two axes.

    ``mask`` is an additive constant array (use large negatives to block).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    scale = 1.0 / float(np.sqrt(q.data.shape[-1]))
    scores = mul(matmul(q, swapaxes(k, -1, -2)), scale)
    if mask is not None:
        scores = add(scores, np.asarray(mask, dtype=scores.data.dtype))
    return matmul(softmax(scores, axis=-1), v)
