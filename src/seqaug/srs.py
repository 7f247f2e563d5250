"""Causal self-attention next-item recommender.

One model serves three roles: the downstream backbone trained on (raw or
augmented) data, the pretrained scorer whose input-gradients steer
classifier-guided sampling, and - trained on reversed sequences - the
autoregressive pre-order generator baseline.

Training uses the sequence-to-one scheme: every prefix of a user's train
items yields one (input, next-item) example, scored with a binary
cross-entropy over the positive logit plus one sampled negative's logit.
Callers read only the last position, so the final block computes that one
alone. Scoring is ``score_sequences``, every item's score for id histories,
and ``item_logits``, one item's logit per row from the last hidden state,
which training and classifier guidance share.
A batch is a list of item-id rows of any lengths; their items are encoded
packed, and attention runs on slices as wide as the longest row, each holding
several whole rows.
"""

import numpy as np

from . import numerics as nd
from .numerics import LayerNorm, Linear, Module, param, seed_stream
from .training import epoch_losses

NEG_INF = -1e9


class AttnFFNBlock(Module):
    def __init__(self, d, rng):
        self.norm1 = LayerNorm(d)
        self.q = Linear(d, d, rng)
        self.k = Linear(d, d, rng)
        self.v = Linear(d, d, rng)
        self.norm2 = LayerNorm(d)
        self.ffn1 = Linear(d, d, rng)
        self.ffn2 = Linear(d, d, rng)

    def __call__(self, h, at, mask, drop, last=None):
        """The block over the packed real positions ``h`` (N, d); ``at`` = (slices, cols)
        places them in the (S, W) slices of the block-causal ``mask`` (S, W, W), where
        attention alone runs; ``drop`` is dropout. With ``last`` = (ends, q_at, q_mask)
        only each row's last position (packed index ``ends``) comes out, (B, d): its
        query sits at ``q_at`` in (S, R) and ``q_mask`` (S, R, W) gives its keys, which
        read all N."""
        s, w, d = mask.shape[0], mask.shape[-1], h.shape[-1]
        a = self.norm1(h)
        k, v = (nd.scatter(f(a), at, (s, w, d)) for f in (self.k, self.v))
        q_at = at
        if last is not None:
            ends, q_at, mask = last
            a, h = nd.take(a, ends), nd.take(h, ends)
        q = nd.scatter(self.q(a), q_at, (s, mask.shape[1], d))
        a = nd.take(nd.scaled_dot_attention(q, k, v, mask=mask), q_at)
        h = nd.add(h, drop(a))
        f = self.ffn2(nd.relu(self.ffn1(self.norm2(h))))
        return nd.add(h, drop(f))


def pack_rows(lengths):
    """Pack rows of ``lengths`` items into S slices of width W, the longest row: rows
    go first-fit in decreasing order of length (a stable sort), each left-aligned after
    the rows already in its slice. Returns ``at`` = (slices, cols) of every item in row
    order, the additive (S, W, W) mask in which an item sees itself and the earlier
    items of its own row, and ``last`` = (ends, (slices, ranks), (S, R, W) mask): the
    packed index of each row's last item, where its query sits when the final block
    groups them by slice, and the keys it sees."""
    b, w = len(lengths), int(lengths.max())
    slices, offsets, ranks = [0] * b, [0] * b, [0] * b
    room, held = [], []
    lens = lengths.tolist()
    s = last_n = 0
    for r in np.argsort(-lengths, kind="stable").tolist():
        n = lens[r]
        # the slices before s had no room for the previous row, of this length
        if n != last_n:
            s, last_n = 0, n
        while s < len(room) and room[s] < n:
            s += 1
        if s == len(room):
            room.append(w)
            held.append(0)
        slices[r], offsets[r], ranks[r] = s, w - room[s], held[s]
        room[s] -= n
        held[s] += 1
    slices, offsets, ranks = np.array(slices), np.array(offsets), np.array(ranks)
    row = np.repeat(np.arange(b), lengths)
    ends = np.cumsum(lengths) - 1
    cols = offsets[row] + np.arange(len(row)) - (ends - lengths + 1)[row]
    at = (slices[row], cols)
    # compared at the smallest integer type that holds w, several times faster than int64;
    # unused slice positions start at themselves, and no item's query sees them
    j = np.arange(w, dtype=np.min_scalar_type(w))
    starts = np.tile(j, (len(room), 1))
    starts[at] = offsets[row]
    seen = j >= starts[:, :, None]
    seen &= j <= j[:, None]
    dtype = nd.default_dtype()
    mask = np.full(seen.shape, NEG_INF, dtype=dtype)
    mask[seen] = 0.0
    q_mask = np.zeros((len(room), max(held), w), dtype=dtype)
    q_mask[slices, ranks] = mask[slices, cols[ends]]
    return at, mask, (ends, (slices, ranks), q_mask)


class SrsModel(Module):
    """Attention blocks over item-id rows; logits are the last position's hidden
    state dotted with the (tied) item-embedding table. A row of n items uses the
    last n rows of ``pos_emb``, so its positions do not depend on its batch.
    The items of a batch are encoded packed, (N, d). Attention runs on (S, W)
    slices as wide as the longest row, each holding whole rows side by side
    (``pack_rows``); keys of other rows get exactly zero weight. Each dropout
    masks the packed (N, d) array it is given, or (B, d) in the last block. The
    last block computes the last position alone (its keys and values read every
    position), with each row's query grouped by slice. The RunConfig's ``srs_*``
    fields give its shape and dropout; ``num_items`` is the catalogue it scores."""

    def __init__(self, config, num_items, rng):
        self.config = config
        self.num_items = num_items
        d = config.srs_embed_dim
        self.item_emb = param(rng.standard_normal((num_items + 1, d)) * 0.1)
        self.pos_emb = param(rng.standard_normal((config.srs_max_len, d)) * 0.1)
        self.blocks = [AttnFFNBlock(d, rng) for _ in range(config.srs_blocks)]
        self.final_norm = LayerNorm(d)

    # -- encoding ----------------------------------------------------------

    def encode(self, rows=None, emb_seq=None, train=False, rng=None):
        """The last position's hidden state (B, d). Either look up item-id ``rows``,
        each cut to its last max_len items, or run a caller-supplied embedding
        sequence (B, M, d), every position an item, through the same trunk; the
        two agree exactly when emb_seq equals the looked-up rows. An empty row or
        an id below 1 is refused, and so is an emb_seq wider than max_len, which
        would have no position embeddings."""
        max_len, d = self.config.srs_max_len, self.config.srs_embed_dim
        if emb_seq is None:
            rows = [r[-max_len:] for r in rows]
            lengths = np.array([len(r) for r in rows])
            if not lengths.all():
                raise ValueError("cannot score an empty sequence")
            ids = np.concatenate(rows)
            if ids.min() < 1:
                raise ValueError(f"item ids start at 1, got {ids.min()}")
            x = nd.embedding(self.item_emb, ids)
        else:
            b, m = emb_seq.shape[:2]
            if m > max_len:
                raise ValueError(f"rows are {m} positions wide, but max_len is {max_len}")
            lengths = np.full(b, m)
            x = nd.reshape(emb_seq, (b * m, d))

        def drop(x):
            return nd.dropout(x, self.config.srs_dropout, train, rng)

        # row r's j-th item sits at pos_emb[max_len - len(r) + j]
        pos = np.arange(x.shape[0]) + np.repeat(max_len - np.cumsum(lengths), lengths)
        h = drop(nd.add(nd.mul(x, float(np.sqrt(d))), nd.take(self.pos_emb, pos)))
        packed_at, mask, last = pack_rows(lengths)
        for block in self.blocks:
            h = block(h, packed_at, mask, drop, last=last if block is self.blocks[-1] else None)
        return self.final_norm(h)

    def score_sequences(self, sequences):
        """(B, V) ndarray of next-item scores for item-id histories; column v-1 is
        item v."""
        with nd.no_grad():
            return self.encode(rows=sequences).data @ self.item_emb.data[1:].T


def item_logits(last_h, rows):
    """(B,) logits, sum(last_h * rows) over d: each row's last hidden state (B, d)
    scored against one item's embedding row (B, d), a Tensor or a constant array."""
    return nd.sum_(nd.mul(last_h, rows), axis=-1)


# ---------------------------------------------------------------------------
# training


def build_examples(sequences):
    """Sequence-to-one examples: every prefix of length >= 1 predicts the
    next item. ``sequences`` is a dict user -> item list."""
    examples = []
    for user, seq in sequences.items():
        for i in range(1, len(seq)):
            examples.append((user, seq[:i], seq[i]))
    return examples


def sample_negatives(num_items, forbidden, rng):
    """A uniform item id not in ``forbidden``, or None when every id is."""
    if len(forbidden) >= num_items:
        return None
    # rejection sampling; the pool is almost always most of the catalogue
    while True:
        v = int(rng.integers(1, num_items + 1))
        if v not in forbidden:
            return v


def _batch_loss(model, batch, train, rng):
    """Mean BCE over a batch of (item_ids, target, negative) rows; a None negative
    adds no term."""
    last = model.encode(rows=[b[0] for b in batch], train=train, rng=rng)
    pos_ids = np.array([b[1] for b in batch], dtype=np.int64)
    pos_logit = item_logits(last, nd.embedding(model.item_emb, pos_ids))
    loss = nd.mean(nd.softplus(nd.mul(pos_logit, -1.0)))
    neg_mask = np.array([b[2] is not None for b in batch], dtype=nd.default_dtype())
    neg_ids = np.array([b[2] or 0 for b in batch], dtype=np.int64)
    neg_logit = item_logits(last, nd.embedding(model.item_emb, neg_ids))
    return nd.add(loss, nd.mean(nd.mul(nd.softplus(neg_logit), neg_mask)))


def _valid_hr10(model, split):
    users = list(split.train.keys())
    hits, total = 0, 0
    for start in range(0, len(users), 256):
        chunk = users[start:start + 256]
        seqs = [split.train[u] for u in chunk]
        scores = model.score_sequences(seqs)
        for u, row in zip(chunk, scores):
            target = split.valid_target[u]
            hits += int(np.sum(row >= row[target - 1])) <= 10
            total += 1
    return hits / max(1, total)


def _fit(model, sequences, split, config, validate):
    """Train on the sequence-to-one examples of ``sequences`` with the RunConfig's
    ``srs_*`` settings; each negative avoids its user's full sequence in ``split``.
    With ``validate``, tracks HR@10 on ``split``'s validation targets each epoch
    and restores the best-validation weights at the end."""
    examples = build_examples(sequences)
    if not examples:
        raise ValueError("no training examples; every sequence has length < 2")
    avoid = {u: set(split.full_sequence(u)) for u in split.train}
    neg_rng = seed_stream(config.seed, "srs-negatives")
    drop_rng = seed_stream(config.seed, "srs-dropout")

    def batch_loss(indices):
        rows = [(prefix, target, sample_negatives(model.num_items, avoid[user], neg_rng))
                for user, prefix, target in (examples[i] for i in indices)]
        return _batch_loss(model, rows, train=True, rng=drop_rng)

    history = {"loss": [], "valid_hr10": []}
    best = (-1.0, None)
    for loss in epoch_losses("train-srs", model, config.srs_lr, len(examples), config.srs_batch_size,
                             config.srs_epochs, seed_stream(config.seed, "srs-shuffle"), batch_loss):
        history["loss"].append(loss)
        if validate:
            hr = _valid_hr10(model, split)
            history["valid_hr10"].append(hr)
            if hr > best[0]:
                best = (hr, model.state_arrays())
    if best[1] is not None:
        model.load_state_arrays(best[1])
    return history


def train(model, split, config):
    """Fit on the train portion of a leave-one-out split; tracks validation
    HR@10 each epoch and restores the best-validation weights at the end."""
    return _fit(model, split.train, split, config, validate=True)


def train_reverse(model, split, config):
    """Same procedure on reversed, test-excluded sequences; yields the
    pre-order generator used by the iterative-extension baseline."""
    reversed_seqs = {u: list(reversed(split.train[u] + [split.valid_target[u]]))
                     for u in split.train}
    return _fit(model, reversed_seqs, split, config, validate=False)


def generate_preorder(model, raw_items, M):
    """Greedily extend the reversed history M times; returned in forward
    order, ready to prepend before the first real item."""
    seq = list(reversed(raw_items))
    generated = []
    for _ in range(M):
        scores = model.score_sequences([seq])[0]
        v = int(np.argmax(scores)) + 1
        generated.append(v)
        seq.append(v)
    return list(reversed(generated))
