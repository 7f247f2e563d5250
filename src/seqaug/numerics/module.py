"""Tiny module/layer layer on top of the tensor engine."""

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .conv import conv2d
from .tensor import Tensor


class Module:
    """Base class with recursive, insertion-ordered parameter discovery."""

    def parameters(self):
        """Flat dict of dotted parameter names to Tensors. Recurses through
        attributes, sub-modules, and (nested) lists/tuples of sub-modules."""
        out = {}

        def visit(prefix, value):
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out[prefix] = value
            elif isinstance(value, Module):
                for name, child in vars(value).items():
                    visit(f"{prefix}.{name}" if prefix else name, child)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    visit(f"{prefix}.{i}", item)

        visit("", self)
        return out

    def zero_grad(self):
        for p in self.parameters().values():
            p.grad = None

    def state_arrays(self):
        return {name: p.data.copy() for name, p in self.parameters().items()}

    def load_state_arrays(self, arrays):
        params = self.parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(extra)}")
        for name, p in params.items():
            arr = np.asarray(arrays[name])
            if arr.shape != p.data.shape:
                raise T.ShapeError(f"{name}: checkpoint shape {arr.shape} vs model shape {p.data.shape}")
            p.data = arr.astype(p.data.dtype, copy=True)

    def save(self, path, meta=None):
        save_checkpoint(path, self.state_arrays(), meta=meta)


def param(data):
    return Tensor(np.asarray(data, dtype=T.default_dtype()), requires_grad=True)


class Linear(Module):
    def __init__(self, d_in, d_out, rng):
        w = rng.standard_normal((d_in, d_out)) * np.sqrt(1.0 / d_in)
        self.w = param(w)
        self.b = param(np.zeros(d_out))

    def __call__(self, x):
        # matmul over the last axis for any leading shape
        lead = x.shape[:-1]
        flat = T.reshape(x, (-1, x.shape[-1])) if x.ndim != 2 else x
        out = T.add(T.matmul(flat, self.w), self.b)
        if x.ndim != 2:
            out = T.reshape(out, lead + (self.w.shape[1],))
        return out


class LayerNorm(Module):
    def __init__(self, dim):
        self.gain = param(np.ones(dim))
        self.bias = param(np.zeros(dim))

    def __call__(self, x):
        return T.layer_norm(x, self.gain, self.bias)


class Conv2d(Module):
    """3x3 (by default) channels-last convolution with He-normal init."""

    def __init__(self, c_in, c_out, rng, kernel=3, stride=1, padding=1, init_scale=1.0):
        fan_in = c_in * kernel * kernel
        w = rng.standard_normal((kernel, kernel, c_in, c_out)) * (init_scale * np.sqrt(2.0 / fan_in))
        self.w = param(w)
        self.b = param(np.zeros(c_out))
        self.stride = stride
        self.padding = padding

    def __call__(self, x):
        return conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)
