"""2-d convolution and nearest-neighbour upsampling, channels-last (NHWC).

``conv2d`` lowers a convolution one of two ways, chosen from the input's
geometry alone:

- **dense**: the taps of ``w`` are scattered into one (H*W*C, OH*OW*O)
  weight matrix. The forward pass is ``x @ big``, the input gradient
  ``g @ big.T``, and the weight gradient the valid (input pixel, output
  pixel) blocks of ``x.T @ g``, folded onto the taps by one one-hot GEMM.
- **gather**: im2col through a pair of index tables whose one-past-the-end
  index reads an appended zero row, then one GEMM each way.

``_plan`` caches either lowering's index arrays per geometry.

The dense matrix has H*W*OH*OW blocks of C*O weights, and only the blocks
of valid taps are non-zero. A geometry goes dense when the blocks number
at most ``_DENSE_RATIO`` times its valid taps. Why 3: on 2 cores in float32
at the SU-Net's widths (6-96 channels, B 128-256), 3x3 convs on 2x2 and 4x4
planes (ratios 1.0 and 2.56) took 0.25-0.85 of the gather time (72->24 on
4x4 with its backward: 1.09), because the 9x im2col copy cost more than the
zero blocks' arithmetic. Ratio 3.7 (3x3 on 5x5) took 1.1-1.4x the gather
time, 4 (1x1 on 2x2) 1.4-1.7x, 5.1 (3x3 on 6x6) 1.6-1.9x, 8.5 (3x3 on 8x8)
2.7-2.8x and 16 (1x1 on 4x4) 4.7-5.2x. 3 lies between the last ratio that
won and the first that lost. Wider convs move the crossover down: at 48-128
channels a 4x4 plane ran 1.1-1.7x slower dense.

A 1x1 conv with stride 1 and no padding is a gather whose table is the
identity (``_plan`` stores ``None`` for it): its im2col matrix is the input
itself, reshaped to (B*H*W, C), and the same holds for the gradient in
backward, so no zero row is appended and a contiguous array is not copied.
It is the gather's GEMM on the same operands, so the bytes are the same.

Inside ``frozen_weights()`` and under ``no_grad``, the dense lowering builds
``big`` once per weight array and geometry and reuses it for the rest of the
context. ``diffusion.sample`` opens it around its T-step loop, where the
weights never change; the matrices die when the context closes, so none
survives into an optimizer step. A cached entry keeps a reference to the
weight array it was built from, so that array's id cannot be reused while
the entry lives. With grad enabled, or outside the context, every call
builds its own matrix.
"""

import contextlib
import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor
from .tensor import ShapeError, _accum, _make, as_tensor

_DENSE_RATIO = 3
# the open frozen_weights() context's dense matrices, or None outside one
_FROZEN = None


@contextlib.contextmanager
def frozen_weights():
    """A context whose caller writes no weight array until it closes. Under
    ``no_grad`` inside it, conv2d's dense lowering builds each weight array's
    matrix once and reuses it; closing the context drops every matrix it built."""
    global _FROZEN
    outer, _FROZEN = _FROZEN, {}
    try:
        yield
    finally:
        _FROZEN = outer


@functools.lru_cache(maxsize=32)
def _plan(h, w, kh, kw, stride, padding):
    """The lowering of one geometry, every array read-only: ``("dense", p, q, k, fold)``,
    where input pixel ``p[i]`` feeds output pixel ``q[i]`` through tap ``k[i]`` and the
    (K, n) one-hot ``fold`` sums the n taps onto K; or ``("gather", fwd, bwd)``, where
    ``fwd[q, k]`` is the input pixel output pixel q reads through tap k, ``bwd[p, k]``
    the output pixel whose tap k reads input pixel p, and one past the last pixel is
    the zero row. An identity ``fwd`` (1x1, stride 1, no padding) is stored as
    ``None``, and so is its ``bwd``, which is the identity too."""
    plane = np.pad(np.arange(h * w).reshape(h, w), padding, constant_values=h * w)
    fwd = sliding_window_view(plane, (kh, kw))[::stride, ::stride].reshape(-1, kh * kw)
    q, k = np.nonzero(fwd < h * w)
    if h * w * len(fwd) <= _DENSE_RATIO * len(q):
        fold = np.zeros((kh * kw, len(q)), dtype=np.float32)
        fold[k, np.arange(len(q))] = 1.0
        plan = ("dense", fwd[q, k], q, k, fold)
    elif (kh, kw, stride, padding) == (1, 1, 1, 0):
        plan = ("gather", None, None)
    else:
        bwd = np.full((h * w, kh * kw), len(fwd))
        bwd[fwd[q, k], k] = q
        plan = ("gather", fwd, bwd)
    for table in plan[1:]:
        if table is not None:
            table.flags.writeable = False
    return plan


def _gather(a, table):
    """The (B*rows, taps*C) im2col matrix of the (B, pixels, C) ``a``; a ``None``
    table is the identity, so ``a`` itself, contiguous as a gather's copy is."""
    if table is None:
        return np.ascontiguousarray(a).reshape(-1, a.shape[-1])
    return np.concatenate((a, np.zeros_like(a[:, :1])), axis=1).take(table, axis=1).reshape(len(a) * len(table), -1)


def _dense_matrix(w, geometry, p, q, k, pixels, out_pixels):
    """The (pixels*C, out_pixels*O) matrix holding the taps of ``w`` (KH, KW, C, O)
    at the blocks (``p``, ``q``) of ``geometry``'s plan; under no_grad inside
    ``frozen_weights()``, built once per weight array and geometry."""
    key = (id(w), geometry)
    cached = _FROZEN is not None and not tensor._GRAD_ENABLED
    if cached and key in _FROZEN:
        return _FROZEN[key][1]
    kh, kw, c, o = w.shape
    big = np.zeros((pixels, c, out_pixels, o), dtype=w.dtype)
    big[p, :, q] = w.reshape(kh * kw, c, o)[k]
    big = big.reshape(pixels * c, out_pixels * o)
    if cached:
        _FROZEN[key] = (w, big)
    return big


def conv2d(x, w, b, stride=1, padding=0):
    """Cross-correlation of (B, H, W, C) with kernels (KH, KW, C, O), plus the (O,) bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x.data.shape} and {w.data.shape}")
    bs, h, wd, c = x.data.shape
    kh, kw, c2, o = w.data.shape
    if c != c2:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs kernel {w.data.shape}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.data.shape}, kernel {w.data.shape}")
    if b.data.shape != (o,):
        raise ShapeError(f"conv2d bias shape {b.data.shape} does not match {o} output channels")

    geometry = (h, wd, kh, kw, stride, padding)
    lowering, *tables = _plan(*geometry)
    if lowering == "gather":
        fwd, bwd_table = tables
        col = _gather(x.data.reshape(bs, h * wd, c), fwd)
        out_data = col @ w.data.reshape(kh * kw * c, o)

        def weight_grad(g):
            return col.T @ g.reshape(-1, o)

        def input_grad(g):
            dcol = _gather(g.reshape(bs, oh * ow, o), bwd_table)
            return dcol @ w.data.transpose(0, 1, 3, 2).reshape(kh * kw * o, c)
    else:
        p, q, k, fold = tables
        big = _dense_matrix(w.data, geometry, p, q, k, h * wd, oh * ow)
        flat = x.data.reshape(bs, h * wd * c)
        out_data = flat @ big

        def weight_grad(g):
            blocks = (flat.T @ g.reshape(bs, -1)).reshape(h * wd, c, oh * ow, o)[p, :, q]
            return fold @ blocks.reshape(len(p), c * o)

        def input_grad(g):
            return g.reshape(bs, -1) @ big.T

    out_data = out_data.reshape(bs, oh, ow, o)
    out_data += b.data

    def bwd(g):
        if w.requires_grad:
            _accum(w, weight_grad(g).reshape(w.data.shape))
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 1, 2)))
        if x.requires_grad:
            _accum(x, input_grad(g).reshape(x.data.shape))

    return _make(out_data, (x, w, b), bwd, "conv2d")


def upsample_nearest2d(x, scale=2):
    """Nearest-neighbour upsampling of (B, H, W, C) by an integer factor."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest2d expects 4-d input, got {x.data.shape}")
    bs, h, w, c = x.data.shape
    out_data = np.broadcast_to(x.data[:, :, None, :, None, :],
                               (bs, h, scale, w, scale, c)).reshape(bs, h * scale, w * scale, c)

    def bwd(g):
        _accum(x, g.reshape(bs, h, scale, w, scale, c).sum(axis=(2, 4)))

    return _make(out_data, (x,), bwd, "upsample_nearest2d")
