"""Forward noising, the noise-prediction training loss, guided reverse
sampling, and rounding of generated embeddings back to item ids.

Sampling works on plain arrays under no_grad; the only graph built during
generation is the scorer input-gradient needed by classifier guidance.
"""

import numpy as np

from . import numerics as nd
from .numerics import Tensor, seed_stream
from .srs import item_logits


def forward_sample(x0, t, eps, sched):
    """Closed-form q(x_t | x_0): sqrt(ab_t) x0 + sqrt(1-ab_t) eps, as a graph Tensor
    (the training loss's); ``t`` may be an int or a per-row int array matching
    x0's first axis."""
    t_arr = np.asarray(t)
    if not (np.all(t_arr >= 1) and np.all(t_arr <= sched.T)):
        raise ValueError(f"t={t} out of range [1, {sched.T}]")
    x0, eps = nd.as_tensor(x0), nd.as_tensor(eps)
    if x0.shape != eps.shape:
        raise nd.ShapeError(f"x0 shape {x0.shape} does not match eps shape {eps.shape}")
    ab = sched.alpha_bar[t_arr - 1].reshape(t_arr.shape + (1,) * (x0.ndim - t_arr.ndim))
    a = np.sqrt(ab).astype(x0.dtype)
    b = np.sqrt(1.0 - ab).astype(x0.dtype)
    return nd.add(nd.mul(x0, a), nd.mul(eps, b))


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


# the form of the condition vector, recorded in each diffusion checkpoint's meta
CONDITION = "mean+lead"


def lead_condition(model, raw_seqs, uncond_mask=None):
    """The SU-Net's condition (B, d): each raw sequence's order-free mean
    embedding plus the embedding of its first ("lead") item, the item the
    generated prefix must lead into. Rows flagged in ``uncond_mask`` are
    exactly the padding vector (the unconditional branch)."""
    lengths = np.array([len(s) for s in raw_seqs])
    if not lengths.all():
        raise ValueError("raw sequence must be nonempty; the unconditional branch uses the padding vector")
    real = np.arange(lengths.max()) < lengths[:, None]
    ids = np.zeros(real.shape, dtype=np.int64)
    ids[real] = np.concatenate(raw_seqs)
    weights = (real / lengths[:, None]).astype(nd.default_dtype())[..., None]
    c = nd.sum_(nd.mul(nd.embedding(model.item_emb, ids), weights), axis=1)
    lead = nd.embedding(model.item_emb, ids[:, 0])
    if uncond_mask is not None and uncond_mask.any():
        pad = nd.embedding(model.item_emb, np.zeros(len(raw_seqs), dtype=np.int64))
        keep = (~uncond_mask).astype(c.dtype)[:, None]
        drop = uncond_mask.astype(c.dtype)[:, None]
        c = nd.add(nd.mul(c, keep), nd.mul(pad, drop))
        lead = nd.mul(lead, keep)
    return nd.add(c, lead)


def loss_given_draws(model, aug_ids, raw_seqs, sched, t, eps, uncond_mask=None):
    """Noise-prediction MSE for fixed draws (t, eps), conditioned on the
    preference mean plus the lead item (``lead_condition``); deterministic,
    so a reloaded checkpoint must reproduce it exactly on a fixed batch."""
    aug_ids = np.asarray(aug_ids, dtype=np.int64)
    eps = np.asarray(eps, dtype=nd.default_dtype())
    x0 = nd.embedding(model.item_emb, aug_ids)
    x_t = forward_sample(x0, t, eps, sched)
    c = lead_condition(model, raw_seqs, uncond_mask)
    eps_hat = model.predict_noise(x_t, t, c)
    diff = nd.sub(eps_hat, eps)
    return nd.mean(nd.mul(diff, diff))


def training_loss(model, aug_ids, raw_seqs, sched, rng, p_uncond=0.0):
    """Draw t ~ U{1..T} and eps ~ N(0, I) per row of the (B, M) ``aug_ids``,
    then the mean squared error between the drawn noise and the prediction
    given the preference mean plus the lead item (``lead_condition``). With
    p_uncond > 0 the condition vector is replaced by the padding vector at
    that rate (classifier-free training)."""
    b, m = np.shape(aug_ids)
    t = rng.integers(1, sched.T + 1, size=b)
    eps = rng.standard_normal((b, m, model.config.embed_dim))
    uncond = rng.random(b) < p_uncond if p_uncond > 0 else None
    return loss_given_draws(model, aug_ids, raw_seqs, sched, t, eps, uncond)


# ---------------------------------------------------------------------------
# guided sampling


def scorer_input_gradient(classifier, x_t, first_items):
    """d/dx_t of sum_b log p(first_item_b | x_t_b) through the scorer; log p
    is the negative BCE of the positive logit at the last position. The first
    items' embedding rows and the classifier's parameters enter as constants,
    so no other row is read and backward leaves no ``.grad`` on a parameter."""
    xt = Tensor(np.asarray(x_t, dtype=nd.default_dtype()), requires_grad=True)
    rows = classifier.item_emb.data[np.asarray(first_items, dtype=np.int64)]
    params = list(classifier.parameters().values())
    for p in params:
        p.requires_grad = False
    try:
        pos = item_logits(classifier.encode(emb_seq=xt), rows)
        log_p = nd.mul(nd.sum_(nd.softplus(nd.mul(pos, -1.0))), -1.0)
        nd.backward(log_p)
    finally:
        for p in params:
            p.requires_grad = True
    return xt.grad


def guide_noise(model, x_t, t, c, gamma, sched, classifier=None, raw_first_items=None):
    """Guided noise estimate for one reverse step; returns an array shaped
    like x_t.

    With no ``classifier`` (classifier-free guidance) the conditional and
    padding-conditioned predictions are extrapolated, eps_cond + gamma *
    (eps_cond - eps_uncond). With a pretrained ``classifier`` (classifier
    guidance) the conditional prediction shifts by -gamma * sqrt(1 - ab_t)
    times the scorer's input-gradient of log p(first real item | generated
    state). gamma = 0 reduces both to the conditional prediction bitwise.
    """
    c_data = c.data if isinstance(c, Tensor) else np.asarray(c)
    b = x_t.shape[0]
    with nd.no_grad():
        if classifier is None and gamma != 0.0:
            pad = model.item_emb.data[0]
            both_c = np.concatenate([c_data, np.broadcast_to(pad, c_data.shape)], axis=0)
            both_x = np.concatenate([x_t, x_t], axis=0)
            out = model.predict_noise(both_x, t, both_c).data
            eps_cond, eps_uncond = out[:b], out[b:]
            return eps_cond + gamma * (eps_cond - eps_uncond)
        eps_cond = model.predict_noise(x_t, t, c_data).data
    if classifier is not None and gamma != 0.0:
        if raw_first_items is None:
            raise ValueError("classifier guidance needs the first item of each raw sequence")
        grad = scorer_input_gradient(classifier, x_t, raw_first_items)
        scale = gamma * float(np.sqrt(1.0 - sched.alpha_bar[t - 1]))
        return eps_cond - scale * grad
    return eps_cond


def reverse_step(model, x_t, t, c, gamma, sched, noise, classifier=None, raw_first_items=None):
    """One ancestral step x_t -> x_{t-1}.

    mean = (x_t - beta_t / sqrt(1 - ab_t) * eps_hat) / sqrt(alpha_t); at
    t == 1 the mean is returned without added noise. ``noise`` holds the
    pre-drawn standard normals for this step (ignored at t == 1).
    """
    if not 1 <= t <= sched.T:
        raise ValueError(f"t={t} out of range [1, {sched.T}]")
    eps_hat = guide_noise(model, x_t, t, c, gamma, sched, classifier, raw_first_items)
    beta = float(sched.beta[t - 1])
    coeff = beta / float(np.sqrt(1.0 - sched.alpha_bar[t - 1]))
    mean = (x_t - coeff * eps_hat) / float(np.sqrt(sched.alpha[t - 1]))
    if t == 1:
        return mean
    sigma = float(np.sqrt(sched.sigma2[t - 1]))
    return mean + sigma * noise


def sample(model, raw_seqs, M, gamma, sched, seed, user_keys=None, classifier=None):
    """Generate x0-hat (B, M, d) for a batch of users from pure noise,
    conditioned on each raw sequence's preference mean plus its lead item
    (``lead_condition``), the condition the model was trained on; with no
    ``classifier`` the guide is classifier-free, else classifier guidance.

    Every user draws x_T and the per-step noise from a private stream keyed
    by (seed, user), so results do not depend on how users are batched.

    The T-step loop runs inside ``nd.frozen_weights()``: the weights do not
    change during it, so each dense conv lowering's weight matrix is built
    once per call rather than once per step, and dropped when the call
    returns, before any optimizer step. The SU-Net's no-grad forward keeps
    no backward state. The sampled x0 is bitwise what a per-step build gives.
    """
    d = model.config.embed_dim
    keys = user_keys if user_keys is not None else list(range(len(raw_seqs)))
    rngs = [seed_stream(seed, "sample", int(k)) for k in keys]
    with nd.no_grad():
        c = lead_condition(model, raw_seqs).data
    x = np.stack([r.standard_normal((M, d)) for r in rngs]).astype(nd.default_dtype())
    first_items = [s[0] for s in raw_seqs]
    with nd.frozen_weights():
        for t in range(sched.T, 0, -1):
            noise = None
            if t > 1:
                noise = np.stack([r.standard_normal((M, d)) for r in rngs]).astype(nd.default_dtype())
            x = reverse_step(model, x, t, c, gamma, sched, noise, classifier, first_items)
    return x


def round_to_items(x0_hat, table):
    """``(ids, zero_rows)``: for generated states ``x0_hat`` of shape (B, M, d),
    the (B, M) nearest items by cosine similarity, never row 0 (padding).

    Ties break toward the smallest item id. A zero-norm generated row scores
    zero against every item, so it rounds to item 1; ``zero_rows`` counts them.
    """
    x = np.asarray(x0_hat)
    table = np.asarray(table)
    if table.size == 0:
        raise ValueError("empty embedding table")
    cand = table[1:]
    norms = np.linalg.norm(cand, axis=1)
    norms = np.where(norms == 0, 1.0, norms)
    unit_cand = cand / norms[:, None]

    b, m, _ = x.shape
    flat = x.reshape(b * m, -1)
    row_norms = np.linalg.norm(flat, axis=1)
    zero_rows = row_norms == 0
    dots = flat @ unit_cand.T
    sims = dots / np.where(zero_rows, 1.0, row_norms)[:, None]
    ids = sims.argmax(axis=1) + 1
    return ids.reshape(b, m), int(zero_rows.sum())
