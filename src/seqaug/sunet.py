"""Noise predictor over stacked item embeddings.

Each d-dimensional embedding is reshaped to a sqrt(d) x sqrt(d) plane and
the M sequence positions become image channels. The network is a small
U-Net: per-level resnet blocks, a stride-2 conv between levels, a middle
resnet + single-head spatial attention, and mirrored levels with skip
concatenation, joined by a nearest-neighbour upsample + conv. A vector
z = c + step_embedding(t) is projected per block and broadcast-added before
the first convolution; c is the condition of ``diffusion.lead_condition``,
the raw sequence's preference mean plus its lead item's embedding.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nd
from .numerics import Conv2d, LayerNorm, Linear, Module, param


def sinusoidal_step_embedding(t, dim):
    """[sin(t*w_0..), cos(t*w_0..)] with w_k = 10000^(-2k/dim).

    ``t`` may be an int or an int array; output shape is (dim,) or (len(t), dim).
    """
    if dim % 2 != 0:
        raise ValueError(f"step embedding dim must be even, got {dim}")
    t_arr = np.asarray(t, dtype=np.float64)
    k = np.arange(dim // 2, dtype=np.float64)
    w = 10000.0 ** (-2.0 * k / dim)
    ang = t_arr[..., None] * w
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
    return emb.astype(nd.default_dtype())


@dataclass(frozen=True)
class SUNetConfig:
    channels: int              # M, the number of generated positions
    embed_dim: int = 64        # d, an even perfect square
    levels: int = 2
    channel_mult: tuple = (1, 2)
    base_width: int = 32
    res_blocks: int = 2

    def __post_init__(self):
        side = math.isqrt(self.embed_dim)
        if side * side != self.embed_dim:
            raise ValueError(f"embed_dim must be a perfect square, got {self.embed_dim}")
        if self.embed_dim % 2:
            raise ValueError(f"the step embedding needs an even embed_dim, got {self.embed_dim}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if len(self.channel_mult) != self.levels:
            raise ValueError(f"channel_mult needs {self.levels} entries, got {self.channel_mult}")
        if side % (2 ** (self.levels - 1)) != 0:
            raise ValueError(f"spatial side {side} is not divisible by 2^{self.levels - 1}")

    @property
    def side(self):
        return math.isqrt(self.embed_dim)


class ResBlock(Module):
    def __init__(self, c_in, c_out, z_dim, rng):
        self.z_proj = Linear(z_dim, c_in, rng)
        self.norm1 = LayerNorm(c_in)
        self.conv1 = Conv2d(c_in, c_out, rng)
        self.norm2 = LayerNorm(c_out)
        self.conv2 = Conv2d(c_out, c_out, rng)
        self.skip = Conv2d(c_in, c_out, rng, kernel=1, padding=0) if c_in != c_out else None

    def __call__(self, h, z):
        zb = self.z_proj(z)
        a = nd.add(h, nd.reshape(zb, (zb.shape[0], 1, 1, zb.shape[1])))
        a = self.conv1(nd.silu(self.norm1(a)))
        a = self.conv2(nd.silu(self.norm2(a)))
        res = h if self.skip is None else self.skip(h)
        return nd.add(a, res)


class AttnBlock(Module):
    """Single-head scaled-dot attention over the spatial positions."""

    def __init__(self, c, rng):
        self.norm = LayerNorm(c)
        self.q = Linear(c, c, rng)
        self.k = Linear(c, c, rng)
        self.v = Linear(c, c, rng)
        self.proj = Linear(c, c, rng)

    def __call__(self, h):
        b, hh, ww, c = h.shape
        flat = nd.reshape(self.norm(h), (b, hh * ww, c))
        att = nd.scaled_dot_attention(self.q(flat), self.k(flat), self.v(flat))
        return nd.add(h, nd.reshape(self.proj(att), (b, hh, ww, c)))


class SUNet(Module):
    """The noise predictor plus the jointly trained item-embedding table.

    Row 0 of the table is the padding vector; it doubles as the
    unconditional guidance signal and is trainable like any other row.
    Embedding rows start at unit scale so the clean signal is comparable
    to the forward-process noise from the first update on.
    """

    def __init__(self, config, num_items, rng):
        self.config = config
        self.num_items = num_items
        d = config.embed_dim
        self.item_emb = param(rng.standard_normal((num_items + 1, d)))

        widths = [config.base_width * m for m in config.channel_mult]
        self.stem = Conv2d(config.channels, widths[0], rng)

        self.down_blocks = []
        self.downsamples = []
        ch = widths[0]
        for lv in range(config.levels):
            blocks = []
            for _ in range(config.res_blocks):
                blocks.append(ResBlock(ch, widths[lv], d, rng))
                ch = widths[lv]
            self.down_blocks.append(blocks)
            if lv < config.levels - 1:
                self.downsamples.append(Conv2d(ch, ch, rng, stride=2))

        self.mid_res = ResBlock(ch, ch, d, rng)
        self.mid_attn = AttnBlock(ch, rng)

        self.up_blocks = []
        self.upsamples = []
        for lv in reversed(range(config.levels)):
            blocks = [ResBlock(ch + widths[lv], widths[lv], d, rng)]
            for _ in range(config.res_blocks - 1):
                blocks.append(ResBlock(widths[lv], widths[lv], d, rng))
            ch = widths[lv]
            self.up_blocks.append(blocks)
            if lv > 0:
                self.upsamples.append(Conv2d(ch, widths[lv - 1], rng))
                ch = widths[lv - 1]

        self.out_norm = LayerNorm(ch)
        # small output scale: early predictions start near zero without
        # disconnecting the gradient path
        self.out_conv = Conv2d(ch, config.channels, rng, init_scale=0.1)

    def predict_noise(self, x_t, t, c):
        """epsilon-hat for a batch: x_t (B, M, d), t int or (B,), c (B, d)."""
        x_t = nd.as_tensor(x_t)
        c = nd.as_tensor(c)
        cfg = self.config
        b, m, d = x_t.shape
        if m != cfg.channels or d != cfg.embed_dim:
            raise nd.ShapeError(f"input shape {x_t.shape} does not match config (M={cfg.channels}, d={cfg.embed_dim})")
        t_vec = np.broadcast_to(np.asarray(t, dtype=np.int64), (b,))
        z = nd.add(c, sinusoidal_step_embedding(t_vec, d))

        h = nd.transpose(nd.reshape(x_t, (b, m, cfg.side, cfg.side)), (0, 2, 3, 1))
        h = self.stem(h)
        skips = []
        for lv in range(cfg.levels):
            for block in self.down_blocks[lv]:
                h = block(h, z)
            skips.append(h)
            if lv < cfg.levels - 1:
                h = self.downsamples[lv](h)

        h = self.mid_res(h, z)
        h = self.mid_attn(h)

        for i, lv in enumerate(reversed(range(cfg.levels))):
            h = nd.concat([h, skips.pop()], axis=-1)
            for block in self.up_blocks[i]:
                h = block(h, z)
            if lv > 0:
                h = self.upsamples[i](nd.upsample_nearest2d(h, 2))

        out = self.out_conv(nd.silu(self.out_norm(h)))
        return nd.reshape(nd.transpose(out, (0, 3, 1, 2)), (b, m, d))
