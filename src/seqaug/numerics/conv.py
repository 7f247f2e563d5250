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
"""

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, _accum, _make, as_tensor

_DENSE_RATIO = 3


@functools.lru_cache(maxsize=32)
def _plan(h, w, kh, kw, stride, padding):
    """The lowering of one geometry, every array read-only: ``("dense", p, q, k, fold)``,
    where input pixel ``p[i]`` feeds output pixel ``q[i]`` through tap ``k[i]`` and the
    (K, n) one-hot ``fold`` sums the n taps onto K; or ``("gather", fwd, bwd)``, where
    ``fwd[q, k]`` is the input pixel output pixel q reads through tap k, ``bwd[p, k]``
    the output pixel whose tap k reads input pixel p, and one past the last pixel is
    the zero row."""
    plane = np.pad(np.arange(h * w).reshape(h, w), padding, constant_values=h * w)
    fwd = sliding_window_view(plane, (kh, kw))[::stride, ::stride].reshape(-1, kh * kw)
    q, k = np.nonzero(fwd < h * w)
    if h * w * len(fwd) <= _DENSE_RATIO * len(q):
        fold = np.zeros((kh * kw, len(q)), dtype=np.float32)
        fold[k, np.arange(len(q))] = 1.0
        plan = ("dense", fwd[q, k], q, k, fold)
    else:
        bwd = np.full((h * w, kh * kw), len(fwd))
        bwd[fwd[q, k], k] = q
        plan = ("gather", fwd, bwd)
    for table in plan[1:]:
        table.flags.writeable = False
    return plan


def _gather(a, table):
    return np.concatenate((a, np.zeros_like(a[:, :1])), axis=1).take(table, axis=1).reshape(len(a) * len(table), -1)


def conv2d(x, w, b=None, stride=1, padding=0):
    """Cross-correlation of (B, H, W, C) with kernels (KH, KW, C, O)."""
    x, w = as_tensor(x), as_tensor(w)
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

    lowering, *tables = _plan(h, wd, kh, kw, stride, padding)
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
        big = np.zeros((h * wd, c, oh * ow, o), dtype=w.data.dtype)
        big[p, :, q] = w.data.reshape(kh * kw, c, o)[k]
        big = big.reshape(h * wd * c, oh * ow * o)
        flat = x.data.reshape(bs, h * wd * c)
        out_data = flat @ big

        def weight_grad(g):
            blocks = (flat.T @ g.reshape(bs, -1)).reshape(h * wd, c, oh * ow, o)[p, :, q]
            return fold @ blocks.reshape(len(p), c * o)

        def input_grad(g):
            return g.reshape(bs, -1) @ big.T

    out_data = out_data.reshape(bs, oh, ow, o)
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != (o,):
            raise ShapeError(f"conv2d bias shape {b.data.shape} does not match {o} output channels")
        out_data += b.data
    parents = (x, w) if b is None else (x, w, b)

    def bwd(g):
        if w.requires_grad:
            _accum(w, weight_grad(g).reshape(w.data.shape))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 1, 2)))
        if x.requires_grad:
            _accum(x, input_grad(g).reshape(x.data.shape))

    return _make(out_data, parents, bwd, "conv2d")


def upsample_nearest2d(x, scale=2):
    """Nearest-neighbour upsampling of (B, H, W, C) by an integer factor."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest2d expects 4-d input, got {x.data.shape}")
    bs, h, w, c = x.data.shape
    out_data = x.data.repeat(scale, axis=1).repeat(scale, axis=2)

    def bwd(g):
        _accum(x, g.reshape(bs, h, scale, w, scale, c).sum(axis=(2, 4)))

    return _make(out_data, (x,), bwd, "upsample_nearest2d")
