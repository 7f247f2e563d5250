"""Minimal reverse-mode autodiff over numpy arrays.

Every op builds a node in an implicit DAG; ``backward(loss)`` walks the
graph once in reverse topological order and accumulates gradients into
``.grad``. Two precision modes are supported: float64 (tight tolerances,
used by the test suite) and float32 (training speed). Stochastic ops take
an explicit ``numpy.random.Generator``; there is no global RNG.

Dtype rule: a Python ``int`` or ``float`` (``np.float64`` scalars included)
becomes a tensor of the default dtype, and any other non-float input is
cast to it; float arrays keep their dtype. An op keeps its array operands'
dtype, so a float32 graph stays float32 end to end. A 0-d float64 array
would not: under NumPy's scalar promotion it is a strong operand and turns
every later node float64.
"""

import contextlib

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonScalarLossError(ValueError):
    """backward() was asked to differentiate a non-scalar node."""


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype ('float32' or 'float64')."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    old = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dtype.type
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


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, op="leaf"):
        if isinstance(data, (int, float)):
            arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        else:
            arr = np.asarray(data)
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward, op):
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward, op=op)
    return Tensor(data, op=op)


def _accum(t, g):
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {t.data.shape}")
    # no backward writes into a gradient array, so the first one is kept as given
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
    else:
        t.grad = (t.grad + g).astype(t.data.dtype, copy=False)


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
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bwd, "add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bwd, "sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd, "mul")


def silu(a):
    """a * sigmoid(a), computed in place in one buffer. Backward rebuilds the sigmoid
    by the same ufuncs in the same order, so it reads the forward's values bitwise."""
    a = as_tensor(a)
    out_data = np.negative(a.data, out=np.empty_like(a.data))
    np.exp(out_data, out=out_data)
    np.add(out_data, 1.0, out=out_data)
    np.divide(1.0, out_data, out=out_data)
    np.multiply(a.data, out_data, out=out_data)

    def bwd(g):
        s = 1.0 / (1.0 + np.exp(-a.data))
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


def sum_(a, axis=None):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis)
    # the summed axes come back as size-1 axes, so g broadcasts to a's shape
    summed = tuple(range(a.ndim)) if axis is None else axis

    def bwd(g):
        _accum(a, np.broadcast_to(np.expand_dims(g, summed), a.data.shape).astype(a.data.dtype, copy=False))

    return _make(out_data, (a,), bwd, "sum")


def mean(a):
    """Mean over every element."""
    a = as_tensor(a)
    out_data = a.data.mean()
    # a Python int, so g / count stays in g's dtype
    count = a.data.size

    def bwd(g):
        _accum(a, np.broadcast_to(g / count, a.data.shape).astype(a.data.dtype, copy=False))

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


def _flat_index(arrays, shape):
    """Row-major positions of an integer-array index over ``shape``'s leading axes."""
    return np.ravel_multi_index(np.broadcast_arrays(*arrays), shape[:len(arrays)], mode="wrap").ravel()


def take(a, idx):
    """``a[idx]`` for an integer array or a tuple of them over the leading axes; any
    other index (a slice, a float array) raises ShapeError. The gradient is an
    assignment when the positions are distinct, else a sorted segment sum, so
    repeated indices add up."""
    a = as_tensor(a)
    arrays = tuple(np.asarray(i) for i in (idx if isinstance(idx, tuple) else (idx,)))
    if not all(np.issubdtype(i.dtype, np.integer) for i in arrays):
        raise ShapeError(f"take indices must be integers, got dtypes {[str(i.dtype) for i in arrays]}")
    out_data = a.data[arrays]

    def bwd(g):
        buf = np.zeros_like(a.data)
        if g.size:
            # negative indices wrap as in the forward pass, which already rejected out-of-range ones
            flat = _flat_index(arrays, a.data.shape)
            trail = a.data.shape[len(arrays):]
            rows = g.reshape(len(flat), *trail)
            if np.bincount(flat).max() > 1:
                order = np.argsort(flat, kind="stable")
                flat, rows = flat[order], rows[order]
                starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
                flat, rows = flat[starts], np.add.reduceat(rows, starts, axis=0)
            buf.reshape(-1, *trail)[flat] = rows
        _accum(a, buf)

    return _make(out_data, (a,), bwd, "take")


def scatter(a, idx, shape):
    """Zeros of ``shape`` with ``a`` at the distinct positions ``idx`` (integer arrays over
    the leading axes): the inverse of ``take``; its gradient is the gather ``g[idx]``."""
    a = as_tensor(a)
    trail = tuple(shape[len(idx):])
    flat = _flat_index(idx, shape)
    out_data = np.zeros(shape, dtype=a.data.dtype)
    out_data.reshape(-1, *trail)[flat] = a.data

    def bwd(g):
        _accum(a, g.reshape(-1, *trail)[flat])

    return _make(out_data, (a,), bwd, "scatter")


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
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

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


def layer_norm(a, gain, bias):
    """Normalize over the last axis (eps 1e-5) with learned gain/bias (fused primitive), in
    place in one copy of the input; ``einsum`` sums make no product temporaries. Backward
    rebuilds the normalized input from the kept row means and inverse deviations."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    n = a.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({n},), got {gain.data.shape} and {bias.data.shape}")
    mean = np.einsum("...i->...", a.data)[..., None] / n
    out_data = a.data - mean
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", out_data, out_data)[..., None] / n + 1e-5)
    out_data *= inv
    out_data *= gain.data
    out_data += bias.data

    def bwd(g):
        xhat = (a.data - mean) * inv
        if gain.requires_grad:
            _accum(gain, np.einsum("ri,ri->i", g.reshape(-1, n), xhat.reshape(-1, n)))
        if bias.requires_grad:
            _accum(bias, np.einsum("ri->i", g.reshape(-1, n)))
        if a.requires_grad:
            gy = g * gain.data
            proj = np.einsum("...i,...i->...", gy, xhat)[..., None] / n
            gy -= np.einsum("...i->...", gy)[..., None] / n + xhat * proj
            _accum(a, gy * inv)

    return _make(out_data, (a, gain, bias), bwd, "layer_norm")


def embedding(table, ids):
    """Row lookup ``table[ids]`` by integer ids; ``take`` sums the gradient of repeated ids."""
    return take(table, np.asarray(ids))


def dropout(a, rate, train, rng):
    """Inverted dropout: the mask is ``rng.random(a.shape) >= rate`` and kept entries
    scale by ``1 / (1 - rate)``. rate=0 or train=False is the identity."""
    a = as_tensor(a)
    if not train or rate == 0.0:
        return a
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = ((rng.random(a.data.shape) >= rate) / (1.0 - rate)).astype(a.data.dtype)
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
