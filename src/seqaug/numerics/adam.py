"""Adam with bias correction, operating in place on Tensor parameters."""

import numpy as np

from .tensor import ShapeError


class Adam:
    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update; parameters with no accumulated gradient are skipped."""
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype, copy=False)
