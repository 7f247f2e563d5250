"""HR@K / NDCG@K under sampled negatives, grouped reports, comparison tables.

Each test user's ground-truth item is ranked against ``negatives`` sampled
items the user never interacted with; ties rank the target last
(pessimistic). Reports aggregate overall and per length group.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import GROUPS, group_of
from .numerics import seed_stream


def rank_metrics(rank, k=10, num_candidates=101):
    """(hr, ndcg) for a 1-based rank among ``num_candidates`` scored items."""
    if not 1 <= rank <= num_candidates:
        raise ValueError(f"rank={rank} out of range [1, {num_candidates}]")
    if rank > k:
        return 0.0, 0.0
    return 1.0, 1.0 / math.log2(rank + 1)


@dataclass
class EvalReport:
    overall: dict
    per_group: dict
    n_users: dict
    seeds: list
    negatives: int
    truncated_negative_users: int = 0
    k: int = 10

    def to_dict(self):
        return {
            "overall": self.overall,
            "per_group": self.per_group,
            "n_users": self.n_users,
            "seeds": self.seeds,
            "negatives": self.negatives,
            "truncated_negative_users": self.truncated_negative_users,
            "k": self.k,
        }

    def save_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True, allow_nan=False)

    @staticmethod
    def from_json(path):
        with open(path, "r", encoding="utf-8") as f:
            d = json.load(f)
        return EvalReport(overall=d["overall"], per_group=d["per_group"], n_users=d["n_users"],
                          seeds=d["seeds"], negatives=d["negatives"],
                          truncated_negative_users=d["truncated_negative_users"], k=d["k"])


def sample_eval_negatives(num_items, forbidden, count, rng):
    """Distinct negatives outside ``forbidden``; when fewer than ``count``
    items remain, every remaining item is used."""
    pool = [v for v in range(1, num_items + 1) if v not in forbidden]
    if len(pool) <= count:
        return pool, True
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in picks], False


def evaluate(scorer, split, ds, negatives=100, seed=1, k=10, target="test", batch_size=256):
    """Rank each user's held-out item among sampled negatives.

    ``split`` supplies the input sequences (pass the augmented split when the
    model was trained on augmented data); ``ds`` supplies the real histories
    used for negative exclusion and for the length-based user groups.
    ``scorer`` needs a ``score_sequences(list of item lists) -> (B, V)``.
    """
    if target not in ("test", "valid"):
        raise ValueError(f"target must be 'test' or 'valid', got {target!r}")
    users = list(split.train.keys())
    groups = {u: group_of(len(ds.users[u])) for u in users}
    sums = {g: np.zeros(2) for g in GROUPS}
    counts = {g: 0 for g in GROUPS}
    truncated = 0

    for start in range(0, len(users), batch_size):
        chunk = users[start:start + batch_size]
        if target == "test":
            seqs = [split.train[u] + [split.valid_target[u]] for u in chunk]
            targets = [split.test_target[u] for u in chunk]
        else:
            seqs = [split.train[u] for u in chunk]
            targets = [split.valid_target[u] for u in chunk]
        scores = scorer.score_sequences(seqs)
        for u, row, tgt in zip(chunk, scores, targets):
            rng = seed_stream(seed, "eval-neg", int(u))
            negs, was_truncated = sample_eval_negatives(ds.num_items, set(ds.users[u]), negatives, rng)
            truncated += was_truncated
            cand = np.array([tgt] + negs, dtype=np.int64)
            cand_scores = row[cand - 1]
            rank = 1 + int(np.sum(cand_scores[1:] >= cand_scores[0]))
            hr, ndcg = rank_metrics(rank, k=k, num_candidates=len(cand))
            g = groups[u]
            sums[g] += (hr, ndcg)
            counts[g] += 1

    total = sum(counts.values())
    overall_sum = sum(sums.values())
    # an empty group has no mean; it is left out and keeps n_users 0
    per_group = {g: {f"hr@{k}": sums[g][0] / counts[g], f"ndcg@{k}": sums[g][1] / counts[g]}
                 for g in GROUPS if counts[g]}
    overall = {f"hr@{k}": overall_sum[0] / total, f"ndcg@{k}": overall_sum[1] / total}
    return EvalReport(overall=overall, per_group=per_group, n_users=dict(counts),
                      seeds=[seed], negatives=negatives, truncated_negative_users=truncated, k=k)


def average_reports(reports):
    """Mean of single-seed reports from repeated runs of the same setting.
    Each group is averaged over the reports that contain it."""
    if not reports:
        raise ValueError("no reports to average")
    k = reports[0].k
    overall = {m: float(np.mean([r.overall[m] for r in reports])) for m in reports[0].overall}
    per_group = {}
    for g in GROUPS:
        having = [r.per_group[g] for r in reports if g in r.per_group]
        if having:
            per_group[g] = {m: float(np.mean([p[m] for p in having])) for m in having[0]}
    seeds = [s for r in reports for s in r.seeds]
    return EvalReport(overall=overall, per_group=per_group, n_users=dict(reports[0].n_users),
                      seeds=seeds, negatives=reports[0].negatives,
                      truncated_negative_users=reports[0].truncated_negative_users, k=k)


def compare(reports, k=10):
    """Alignment table (text) plus CSV for a dict strategy -> EvalReport.

    The best value per metric column is starred; equal bests are all starred.
    """
    metrics = [f"hr@{k}", f"ndcg@{k}"]
    names = list(reports.keys())
    best = {m: max(reports[n].overall[m] for n in names) for m in metrics}

    header = ["strategy"] + metrics
    rows = []
    for n in names:
        row = [n]
        for m in metrics:
            v = reports[n].overall[m]
            star = "*" if v == best[m] else ""
            row.append(f"{v:.4f}{star}")
        rows.append(row)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    text = "\n".join(lines)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["strategy"] + metrics + [f"best_{m}" for m in metrics])
    for n in names:
        vals = [repr(reports[n].overall[m]) for m in metrics]
        flags = [int(reports[n].overall[m] == best[m]) for m in metrics]
        writer.writerow([n] + vals + flags)
    return text, buf.getvalue()
