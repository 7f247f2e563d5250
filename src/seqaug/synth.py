"""Synthetic benchmark: first-order Markov chains with a banded transition
structure and a long-tail length distribution.

Each item v moves to one of its three cyclic successors v+1, v+2, v+3
(mod the catalogue) with probabilities 0.6 / 0.3 / 0.1, so transition
plausibility of generated items is checkable against ground truth.
"""

from .numerics import seed_stream

SUCCESSOR_PROBS = (0.6, 0.3, 0.1)


def successors(item, num_items):
    return tuple((item - 1 + k) % num_items + 1 for k in (1, 2, 3))


def transition_probability(cur, nxt, num_items):
    succ = successors(cur, num_items)
    return dict(zip(succ, SUCCESSOR_PROBS)).get(nxt, 0.0)


def _draw_length(rng):
    # exponential tail of scale 6 shifted to 3 items, clipped to 40
    return min(3 + int(rng.exponential(6.0)), 40)


def generate_interactions(num_users=500, num_items=50, seed=1):
    """Rows of (user, item, timestamp); timestamps are the walk positions. Each user's
    ``seed_stream(seed, "synth", user)`` draws the length, the first item, then all the
    successor picks in one ``choice`` call, which reads one uniform per pick, as a call per pick does."""
    rows = []
    for user in range(1, num_users + 1):
        rng = seed_stream(seed, "synth", user)
        length = _draw_length(rng)
        item = int(rng.integers(1, num_items + 1))
        for pos, pick in enumerate(rng.choice(3, size=length, p=SUCCESSOR_PROBS).tolist()):
            rows.append((user, item, pos))
            item = successors(item, num_items)[pick]
    return rows


def write_interactions(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for user, item, ts in rows:
            f.write(f"{user}\t{item}\t{ts}\n")
