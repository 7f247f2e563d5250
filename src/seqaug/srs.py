"""Causal self-attention next-item recommender.

One model serves three roles: the downstream backbone trained on (raw or
augmented) data, the pretrained scorer whose input-gradients steer
classifier-guided sampling, and - trained on reversed sequences - the
autoregressive pre-order generator baseline.

Training uses the sequence-to-one scheme: every prefix of a user's train
items yields one (input, next-item) example, scored with a binary
cross-entropy over the positive logit plus sampled negative logits.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nd
from .numerics import LayerNorm, Linear, Module, param, seed_stream

NEG_INF = -1e9


@dataclass(frozen=True)
class SrsConfig:
    num_items: int
    embed_dim: int = 64
    blocks: int = 2
    max_len: int = 200
    dropout: float = 0.6


class AttnFFNBlock(Module):
    def __init__(self, d, rng):
        self.norm1 = LayerNorm(d)
        self.q = Linear(d, d, rng)
        self.k = Linear(d, d, rng)
        self.v = Linear(d, d, rng)
        self.norm2 = LayerNorm(d)
        self.ffn1 = Linear(d, d, rng)
        self.ffn2 = Linear(d, d, rng)

    def __call__(self, h, mask, drop_rate, train, rng, max_len):
        a = self.norm1(h)
        a = nd.scaled_dot_attention(self.q(a), self.k(a), self.v(a), mask=mask)
        h = nd.add(h, nd.dropout(a, drop_rate, train, rng, draw_len=max_len))
        f = self.ffn2(nd.relu(self.ffn1(self.norm2(h))))
        return nd.add(h, nd.dropout(f, drop_rate, train, rng, draw_len=max_len))


class SrsModel(Module):
    """Attention blocks over left-padded sequences; logits are the last
    position's hidden state dotted with the (tied) item-embedding table.
    A batch is as wide as its longest row, L <= max_len, and uses the last L
    rows of ``pos_emb``; padded keys get zero attention weight and dropout
    masks are drawn at max_len width, so trimming changes no result beyond
    summation order."""

    def __init__(self, config, rng):
        self.config = config
        d = config.embed_dim
        self.item_emb = param(rng.standard_normal((config.num_items + 1, d)) * 0.1)
        self.pos_emb = param(rng.standard_normal((config.max_len, d)) * 0.1)
        self.blocks = [AttnFFNBlock(d, rng) for _ in range(config.blocks)]
        self.final_norm = LayerNorm(d)

    # -- encoding ----------------------------------------------------------

    def pad_batch(self, sequences):
        """Left-pad / left-truncate item lists to the longest row, at most
        max_len. Returns int array (B, L)."""
        rows = [list(seq)[-self.config.max_len:] for seq in sequences]
        if not all(rows):
            raise ValueError("cannot score an empty sequence")
        L = max(map(len, rows), default=0)
        out = np.zeros((len(rows), L), dtype=np.int64)
        for i, seq in enumerate(rows):
            out[i, L - len(seq):] = seq
        return out

    def _masks(self, pad_rows):
        """Additive mask: strictly causal plus padding keys blocked, with the
        diagonal always open so fully-padded prefixes attend only to
        themselves (otherwise a pad row would leak future keys)."""
        b, L = pad_rows.shape
        causal = np.triu(np.full((L, L), NEG_INF), k=1)
        mask = np.broadcast_to(causal, (b, L, L)).copy()
        mask += np.where(pad_rows[:, None, :] == 0, NEG_INF, 0.0)
        idx = np.arange(L)
        mask[:, idx, idx] = 0.0
        return mask

    def encode(self, ids=None, emb_seq=None, pad_rows=None, train=False, rng=None):
        """Hidden states (B, L, d). Either look up ``ids`` (B, L) or run a
        caller-supplied embedding sequence (B, L, d) through the same trunk;
        the two agree exactly when emb_seq equals the looked-up rows."""
        if emb_seq is None:
            pad_rows = ids
            emb_seq = nd.embedding(self.item_emb, ids)
        elif pad_rows is None:
            raise ValueError("emb_seq input needs explicit pad_rows for masking")
        d = self.config.embed_dim
        h = nd.mul(emb_seq, float(np.sqrt(d)))
        L = pad_rows.shape[1]
        h = nd.add(h, nd.take(self.pos_emb, np.arange(self.config.max_len - L,
                                                      self.config.max_len)))
        h = nd.dropout(h, self.config.dropout, train, rng, draw_len=self.config.max_len)
        mask = self._masks(pad_rows)
        for block in self.blocks:
            h = block(h, mask, self.config.dropout, train, rng, self.config.max_len)
        return self.final_norm(h)

    def last_hidden(self, ids=None, emb_seq=None, pad_rows=None, train=False, rng=None):
        h = self.encode(ids=ids, emb_seq=emb_seq, pad_rows=pad_rows, train=train, rng=rng)
        return nd.take(h, (slice(None), -1))

    def logits_all(self, last_h):
        """Scores over the full catalogue: (B, V); column v-1 is item v."""
        table = nd.take(self.item_emb, slice(1, None))
        return nd.matmul(last_h, nd.transpose(table, (1, 0)))

    # -- scoring API ---------------------------------------------------------

    def score_sequences(self, sequences):
        """(B, V) ndarray of next-item scores for item-id histories."""
        with nd.no_grad():
            ids = self.pad_batch(sequences)
            return self.logits_all(self.last_hidden(ids=ids)).data

    def score_next(self, items):
        """(V,) scores after one history; over-length input keeps the most
        recent max_len items."""
        return self.score_sequences([items])[0]

    def score_embedded(self, emb_seq):
        """Graph-connected logits (B, V) from an embedding-sequence Tensor
        (B, M, d); used for input-gradient guidance."""
        b, m, _ = emb_seq.shape
        pad_rows = np.ones((b, m), dtype=np.int64)
        return self.logits_all(self.last_hidden(emb_seq=emb_seq, pad_rows=pad_rows))


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


def sample_negatives(num_items, forbidden, count, rng):
    """Uniform item ids avoiding ``forbidden``; returns fewer (possibly zero)
    ids when the catalogue is nearly exhausted."""
    pool_size = num_items - len(forbidden)
    if pool_size <= 0:
        return []
    out = []
    # rejection sampling; the pool is almost always much larger than count
    while len(out) < min(count, pool_size):
        v = int(rng.integers(1, num_items + 1))
        if v not in forbidden and v not in out:
            out.append(v)
    return out


def _batch_loss(model, batch, train, rng):
    """Mean BCE over a batch of (padded_ids, target, negatives[]) rows."""
    ids = model.pad_batch([b[0] for b in batch])
    last = model.last_hidden(ids=ids, train=train, rng=rng)
    pos_ids = np.array([b[1] for b in batch], dtype=np.int64)
    pos_logit = nd.sum_(nd.mul(last, nd.embedding(model.item_emb, pos_ids)), axis=-1)
    loss = nd.mean(nd.softplus(nd.mul(pos_logit, -1.0)))
    neg_rows = [b[2] for b in batch]
    width = max(len(r) for r in neg_rows)
    if width > 0:
        neg_ids = np.zeros((len(batch), width), dtype=np.int64)
        neg_mask = np.zeros((len(batch), width), dtype=nd.default_dtype())
        for i, row in enumerate(neg_rows):
            neg_ids[i, :len(row)] = row
            neg_mask[i, :len(row)] = 1.0
        neg_logit = nd.sum_(nd.mul(nd.reshape(last, (len(batch), 1, -1)),
                                   nd.embedding(model.item_emb, neg_ids)), axis=-1)
        neg_bce = nd.mul(nd.softplus(neg_logit), neg_mask)
        loss = nd.add(loss, nd.mean(nd.sum_(neg_bce, axis=-1)))
    return loss


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


def _fit(model, sequences, config, full_histories, valid_split=None):
    """Shared training loop over the RunConfig's ``srs_*`` settings and seed.
    ``full_histories`` maps user -> set of item ids negatives must avoid;
    ``valid_split`` enables per-epoch HR@10 tracking and restores the
    best-validation weights at the end."""
    examples = build_examples(sequences)
    if not examples:
        raise ValueError("no training examples; every sequence has length < 2")
    opt = nd.Adam(list(model.parameters().values()), lr=config.srs_lr)
    shuffle_rng = seed_stream(config.seed, "srs-shuffle")
    neg_rng = seed_stream(config.seed, "srs-negatives")
    drop_rng = seed_stream(config.seed, "srs-dropout")
    num_items = model.config.num_items

    history = {"loss": [], "valid_hr10": []}
    best = (-1.0, None)
    order = np.arange(len(examples))
    for epoch in range(config.srs_epochs):
        shuffle_rng.shuffle(order)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(order), config.srs_batch_size):
            rows = []
            for idx in order[start:start + config.srs_batch_size]:
                user, prefix, target = examples[idx]
                negs = sample_negatives(num_items, full_histories[user], 1, neg_rng)
                rows.append((prefix, target, negs))
            loss = _batch_loss(model, rows, train=True, rng=drop_rng)
            value = float(loss.data)
            if not math.isfinite(value):
                raise FloatingPointError(f"train-srs: loss {value} at epoch {epoch + 1}, "
                                         f"batch {n_batches + 1}")
            model.zero_grad()
            nd.backward(loss)
            opt.step()
            epoch_loss += value
            n_batches += 1
            # free this batch's graph before the next batch builds its own
            del loss
        history["loss"].append(epoch_loss / n_batches)
        if valid_split is not None:
            hr = _valid_hr10(model, valid_split)
            history["valid_hr10"].append(hr)
            if hr > best[0]:
                best = (hr, model.state_arrays())
    if best[1] is not None:
        model.load_state_arrays(best[1])
    return history


def train(model, split, config):
    """Fit on the train portion of a leave-one-out split; tracks validation
    HR@10 each epoch and restores the best-validation weights at the end."""
    full = {u: set(split.full_sequence(u)) for u in split.train}
    return _fit(model, split.train, config, full, valid_split=split)


def train_reverse(model, split, config):
    """Same procedure on reversed, test-excluded sequences; yields the
    pre-order generator used by the iterative-extension baseline."""
    reversed_seqs = {u: list(reversed(split.train[u] + [split.valid_target[u]]))
                     for u in split.train}
    full = {u: set(split.full_sequence(u)) for u in split.train}
    return _fit(model, reversed_seqs, config, full, valid_split=None)


def generate_preorder(model, raw_items, M):
    """Greedily extend the reversed history M times; returned in forward
    order, ready to prepend before the first real item."""
    seq = list(reversed(raw_items))
    generated = []
    for _ in range(M):
        scores = model.score_next(seq)
        v = int(np.argmax(scores)) + 1
        generated.append(v)
        seq.append(v)
    return list(reversed(generated))
