"""Forward noising, the noise-prediction training loss, guided reverse
sampling, and rounding of generated embeddings back to item ids.

Sampling works on plain arrays under no_grad; the only graph built during
generation is the scorer input-gradient needed by classifier guidance.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nd
from .numerics import Tensor, seed_stream


@dataclass
class GuidanceConfig:
    """``diffusion_cf`` or ``diffusion_cg``; gamma = 0 is the conditional prediction."""

    strategy: str = "diffusion_cf"
    gamma: float = 0.0
    classifier: object = None  # pretrained SrsModel, required for diffusion_cg

    def __post_init__(self):
        if self.strategy not in ("diffusion_cf", "diffusion_cg"):
            raise ValueError(f"unknown guidance strategy {self.strategy!r}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.strategy == "diffusion_cg" and self.classifier is None:
            raise ValueError("diffusion_cg needs a pretrained classifier model")


def forward_sample(x0, t, eps, sched):
    """Closed-form q(x_t | x_0): sqrt(ab_t) x0 + sqrt(1-ab_t) eps.

    Works on arrays and on graph Tensors (used inside the training loss);
    ``t`` may be an int or a per-row int array matching x0's first axis.
    """
    t_arr = np.asarray(t)
    if not (np.all(t_arr >= 1) and np.all(t_arr <= sched.T)):
        raise ValueError(f"t={t} out of range [1, {sched.T}]")
    ab = sched.alpha_bar[t_arr - 1]
    a = np.sqrt(ab)
    b = np.sqrt(1.0 - ab)
    x0_shape = x0.shape if isinstance(x0, Tensor) else np.shape(x0)
    eps_shape = eps.shape if isinstance(eps, Tensor) else np.shape(eps)
    if x0_shape != eps_shape:
        raise nd.ShapeError(f"x0 shape {x0_shape} does not match eps shape {eps_shape}")
    if t_arr.ndim > 0:
        extra = (1,) * (len(x0_shape) - 1)
        a = a.reshape(t_arr.shape + extra)
        b = b.reshape(t_arr.shape + extra)
    if isinstance(x0, Tensor) or isinstance(eps, Tensor):
        x0t, epst = nd.as_tensor(x0), nd.as_tensor(eps)
        a = np.asarray(a, dtype=x0t.dtype)
        b = np.asarray(b, dtype=x0t.dtype)
        return nd.add(nd.mul(x0t, a), nd.mul(epst, b))
    x0 = np.asarray(x0)
    return (a * x0 + b * np.asarray(eps)).astype(x0.dtype, copy=False)


def iterated_forward(x0, t, sched, rng):
    """Step-by-step q chain (the slow path); kept as the reference the
    closed form is validated against."""
    x = np.array(x0, dtype=np.float64, copy=True)
    for s in range(1, t + 1):
        beta = sched.beta[s - 1]
        x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.standard_normal(x.shape)
    return x


# ---------------------------------------------------------------------------
# training loss


def condition_batch(model, raw_seqs, uncond_mask=None):
    """Stacked condition vectors (B, d): mean of each raw sequence's
    embeddings, with rows flagged in ``uncond_mask`` replaced by the
    padding vector (the unconditional branch)."""
    width = max(len(s) for s in raw_seqs)
    ids = np.zeros((len(raw_seqs), width), dtype=np.int64)
    weights = np.zeros((len(raw_seqs), width, 1), dtype=nd.default_dtype())
    for i, seq in enumerate(raw_seqs):
        if len(seq) == 0:
            raise ValueError("raw sequence must be nonempty; the unconditional branch uses the padding vector")
        ids[i, :len(seq)] = seq
        weights[i, :len(seq), 0] = 1.0 / len(seq)
    c = nd.sum_(nd.mul(nd.embedding(model.item_emb, ids), weights), axis=1)
    if uncond_mask is not None and uncond_mask.any():
        pad = nd.embedding(model.item_emb, np.zeros(len(raw_seqs), dtype=np.int64))
        keep = (~uncond_mask).astype(c.dtype)[:, None]
        drop = uncond_mask.astype(c.dtype)[:, None]
        c = nd.add(nd.mul(c, keep), nd.mul(pad, drop))
    return c


def loss_given_draws(model, aug_ids, raw_seqs, sched, t, eps, uncond_mask=None):
    """Noise-prediction MSE for fixed draws (t, eps); deterministic, so a
    reloaded checkpoint must reproduce it exactly on a fixed batch."""
    aug_ids = np.asarray(aug_ids, dtype=np.int64)
    eps = np.asarray(eps, dtype=nd.default_dtype())
    x0 = nd.embedding(model.item_emb, aug_ids)
    x_t = forward_sample(x0, t, eps, sched)
    c = condition_batch(model, raw_seqs, uncond_mask)
    eps_hat = model.predict_noise(x_t, t, c)
    diff = nd.sub(eps_hat, eps)
    return nd.mean(nd.mul(diff, diff))


def training_loss(model, aug_ids, raw_seqs, sched, rng, p_uncond=0.0):
    """Draw t ~ U{1..T} and eps ~ N(0, I) per example, then the mean squared
    error between the drawn noise and the prediction. With p_uncond > 0 the
    condition vector is replaced by the padding vector at that rate
    (classifier-free training)."""
    aug_ids = np.asarray(aug_ids, dtype=np.int64)
    if aug_ids.ndim == 1:
        aug_ids = aug_ids[None, :]
        raw_seqs = [raw_seqs]
    b, m = aug_ids.shape
    t = rng.integers(1, sched.T + 1, size=b)
    eps = rng.standard_normal((b, m, model.config.embed_dim))
    uncond = rng.random(b) < p_uncond if p_uncond > 0 else None
    return loss_given_draws(model, aug_ids, raw_seqs, sched, t, eps, uncond)


# ---------------------------------------------------------------------------
# guided sampling


def scorer_input_gradient(classifier, x_t, first_items):
    """d/dx_t of sum_b log p(first_item_b | x_t_b) through the scorer; log p
    is the negative BCE of the positive logit at the last position."""
    xt = Tensor(np.asarray(x_t, dtype=nd.default_dtype()), requires_grad=True)
    logits = classifier.score_embedded(xt)
    idx = (np.arange(x_t.shape[0]), np.asarray(first_items, dtype=np.int64) - 1)
    pos = nd.take(logits, idx)
    log_p = nd.mul(nd.sum_(nd.softplus(nd.mul(pos, -1.0))), -1.0)
    nd.backward(log_p)
    return xt.grad


def guide_noise(model, x_t, t, c, guidance, sched, raw_first_items=None):
    """Guided noise estimate for one reverse step; returns an array shaped
    like x_t.

    diffusion_cf extrapolates conditional vs padding-conditioned
    predictions, eps_cond + gamma * (eps_cond - eps_uncond). diffusion_cg
    shifts the conditional prediction by -gamma * sqrt(1 - ab_t) times the
    scorer's input-gradient of log p(first real item | generated state).
    gamma = 0 reduces both to the conditional prediction bitwise.
    """
    c_data = c.data if isinstance(c, Tensor) else np.asarray(c)
    b = x_t.shape[0]
    with nd.no_grad():
        if guidance.strategy == "diffusion_cf" and guidance.gamma != 0.0:
            pad = model.item_emb.data[0]
            both_c = np.concatenate([c_data, np.broadcast_to(pad, c_data.shape)], axis=0)
            both_x = np.concatenate([x_t, x_t], axis=0)
            out = model.predict_noise(both_x, t, both_c).data
            eps_cond, eps_uncond = out[:b], out[b:]
            return eps_cond + guidance.gamma * (eps_cond - eps_uncond)
        eps_cond = model.predict_noise(x_t, t, c_data).data
    if guidance.strategy == "diffusion_cg" and guidance.gamma != 0.0:
        if raw_first_items is None:
            raise ValueError("diffusion_cg needs the first item of each raw sequence")
        grad = scorer_input_gradient(guidance.classifier, x_t, raw_first_items)
        scale = guidance.gamma * float(np.sqrt(1.0 - sched.alpha_bar[t - 1]))
        return eps_cond - scale * grad
    return eps_cond


def reverse_step(model, x_t, t, c, guidance, sched, noise, raw_first_items=None):
    """One ancestral step x_t -> x_{t-1}.

    mean = (x_t - beta_t / sqrt(1 - ab_t) * eps_hat) / sqrt(alpha_t); at
    t == 1 the mean is returned without added noise. ``noise`` holds the
    pre-drawn standard normals for this step (ignored at t == 1).
    """
    if not 1 <= t <= sched.T:
        raise ValueError(f"t={t} out of range [1, {sched.T}]")
    eps_hat = guide_noise(model, x_t, t, c, guidance, sched, raw_first_items)
    beta = float(sched.beta[t - 1])
    coeff = beta / float(np.sqrt(1.0 - sched.alpha_bar[t - 1]))
    mean = (x_t - coeff * eps_hat) / float(np.sqrt(sched.alpha[t - 1]))
    if t == 1:
        return mean
    sigma = float(np.sqrt(sched.sigma2[t - 1]))
    return mean + sigma * noise


def sample(model, raw_seqs, M, guidance, sched, seed, user_keys=None):
    """Generate x0-hat (B, M, d) for a batch of users from pure noise.

    Every user draws x_T and the per-step noise from a private stream keyed
    by (seed, user), so results do not depend on how users are batched.
    """
    d = model.config.embed_dim
    keys = user_keys if user_keys is not None else list(range(len(raw_seqs)))
    rngs = [seed_stream(seed, "sample", int(k)) for k in keys]
    with nd.no_grad():
        c = condition_batch(model, raw_seqs).data
    x = np.stack([r.standard_normal((M, d)) for r in rngs]).astype(nd.default_dtype())
    first_items = [s[0] for s in raw_seqs]
    for t in range(sched.T, 0, -1):
        noise = None
        if t > 1:
            noise = np.stack([r.standard_normal((M, d)) for r in rngs]).astype(nd.default_dtype())
        x = reverse_step(model, x, t, c, guidance, sched, noise, first_items)
    return x


def round_to_items(x0_hat, table, forbid_padding=True):
    """Nearest item per generated row by cosine similarity.

    Ties break toward the smallest item id; a zero-norm generated row falls
    back to a plain dot-product argmax and is counted in the returned stats.
    """
    x = np.asarray(x0_hat)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    table = np.asarray(table)
    if table.size == 0:
        raise ValueError("empty embedding table")
    cand = table[1:] if forbid_padding else table
    offset = 1 if forbid_padding else 0
    norms = np.linalg.norm(cand, axis=1)
    norms = np.where(norms == 0, 1.0, norms)
    unit_cand = cand / norms[:, None]

    b, m, _ = x.shape
    flat = x.reshape(b * m, -1)
    row_norms = np.linalg.norm(flat, axis=1)
    zero_rows = row_norms == 0
    dots = flat @ unit_cand.T
    sims = dots / np.where(zero_rows, 1.0, row_norms)[:, None]
    scores = np.where(zero_rows[:, None], flat @ cand.T, sims)
    ids = scores.argmax(axis=1) + offset
    ids = ids.reshape(b, m)
    if squeeze:
        ids = ids[0]
    return ids, int(zero_rows.sum())
