"""2-d convolution and nearest-neighbour upsampling, channels-last (NHWC).

``conv2d`` is one gather and one GEMM each way, through a cached pair of
index tables per geometry whose one-past-the-end index reads an appended
zero row: on the SU-Net's 4x4 and 2x2 planes copies cost more than GEMMs.
"""

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, _accum, _make, as_tensor


@functools.lru_cache(maxsize=32)
def _tables(h, w, kh, kw, stride, padding):
    """Read-only ``fwd[q, k]``, the input pixel output pixel q reads through tap k, and ``bwd[p, k]``,
    the output pixel whose tap k reads input pixel p; one past the last pixel is the zero row."""
    plane = np.pad(np.arange(h * w).reshape(h, w), padding, constant_values=h * w)
    fwd = sliding_window_view(plane, (kh, kw))[::stride, ::stride].reshape(-1, kh * kw)
    q, k = np.nonzero(fwd < h * w)
    bwd = np.full((h * w, kh * kw), len(fwd))
    bwd[fwd[q, k], k] = q
    fwd.flags.writeable = bwd.flags.writeable = False
    return fwd, bwd


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

    fwd, bwd_table = _tables(h, wd, kh, kw, stride, padding)
    col = _gather(x.data.reshape(bs, h * wd, c), fwd)
    out_data = (col @ w.data.reshape(kh * kw * c, o)).reshape(bs, oh, ow, o)
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != (o,):
            raise ShapeError(f"conv2d bias shape {b.data.shape} does not match {o} output channels")
        out_data += b.data
    parents = (x, w) if b is None else (x, w, b)

    def bwd(g):
        if w.requires_grad:
            _accum(w, (col.T @ g.reshape(-1, o)).reshape(w.data.shape))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 1, 2)))
        if x.requires_grad:
            dcol = _gather(g.reshape(bs, oh * ow, o), bwd_table)
            _accum(x, (dcol @ w.data.transpose(0, 1, 3, 2).reshape(kh * kw * o, c)).reshape(bs, h, wd, c))

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
