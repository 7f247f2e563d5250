import csv
import io
import json

import numpy as np
import pytest

from seqaug import evaluation as ev
from seqaug.dataset import InteractionDataset, leave_one_out_split, save_json
from seqaug.evaluation import EvalReport, average_reports, compare, evaluate, rank_metrics


class FixedScorer:
    """Scores every user with the same vector."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def score_sequences(self, seqs):
        return np.tile(self.scores, (len(seqs), 1))


class OracleScorer:
    """Always ranks each user's true test target highest."""

    def __init__(self, split, num_items):
        self.targets = split.test_target
        self.order = list(split.train.keys())
        self.num_items = num_items
        self._queue = []

    def score_sequences(self, seqs):
        out = np.zeros((len(seqs), self.num_items))
        for i, u in enumerate(self._queue[:len(seqs)]):
            out[i, self.targets[u] - 1] = 10.0
        self._queue = self._queue[len(seqs):]
        return out


class RandomScorer:
    def __init__(self, seed, num_items):
        self.rng = np.random.default_rng(seed)
        self.num_items = num_items

    def score_sequences(self, seqs):
        return self.rng.random((len(seqs), self.num_items))


def make_dataset(rng, n_users=50, n_items=300, min_len=3, max_len=24):
    users = {}
    for u in range(1, n_users + 1):
        n = int(rng.integers(min_len, max_len))
        users[u] = [int(v) for v in rng.integers(1, n_items + 1, size=n)]
    return InteractionDataset(users=users, num_items=n_items)


# ---------------------------------------------------------------------------
# rank metrics


def test_rank_metrics_closed_forms():
    assert rank_metrics(1, k=10) == (1.0, 1.0)
    hr, ndcg = rank_metrics(3, k=10)
    assert hr == 1.0 and ndcg == pytest.approx(0.5)
    assert rank_metrics(11, k=10) == (0.0, 0.0)


def test_rank_metrics_range_check():
    with pytest.raises(ValueError):
        rank_metrics(0)
    with pytest.raises(ValueError):
        rank_metrics(102)


def test_ndcg_never_exceeds_hr():
    for rank in range(1, 102):
        hr, ndcg = rank_metrics(rank, k=10)
        assert ndcg <= hr


# ---------------------------------------------------------------------------
# negative sampling


def test_negatives_avoid_history_and_target(rng):
    ds = make_dataset(rng)
    for u, seq in list(ds.users.items())[:10]:
        negs, truncated = ev.sample_eval_negatives(ds.num_items, set(seq), 100, rng)
        assert len(negs) == 100 and not truncated
        assert len(set(negs)) == 100
        assert not set(negs) & set(seq)


def test_negatives_truncate_when_pool_small(rng):
    negs, truncated = ev.sample_eval_negatives(10, {1, 2, 3}, 100, rng)
    assert truncated and sorted(negs) == [4, 5, 6, 7, 8, 9, 10]


# ---------------------------------------------------------------------------
# evaluate


def test_oracle_model_scores_perfect(rng):
    ds = make_dataset(rng)
    split = leave_one_out_split(ds)
    scorer = OracleScorer(split, ds.num_items)
    scorer._queue = list(split.train.keys())
    report = evaluate(scorer, split, ds, negatives=100, seed=1)
    assert report.overall["hr@10"] == 1.0
    assert report.overall["ndcg@10"] == 1.0


def test_uniform_random_scorer_matches_analytic_expectation(rng):
    # HR@10 for a random ranking of 101 candidates is 10/101
    ds = make_dataset(rng, n_users=250, n_items=400)
    hits = []
    for seed in range(8):
        report = evaluate(RandomScorer(seed, ds.num_items), leave_one_out_split(ds),
                          ds, negatives=100, seed=seed)
        hits.append(report.overall["hr@10"])
    assert np.mean(hits) == pytest.approx(10 / 101, abs=0.02)


def test_ranks_match_independent_sort_oracle(rng):
    ds = make_dataset(rng, n_users=20, n_items=150)
    split = leave_one_out_split(ds)
    scorer = RandomScorer(123, ds.num_items)
    frozen = scorer.score_sequences([split.train[u] for u in split.train])
    scores_by_user = dict(zip(split.train.keys(), frozen))

    class Replay:
        def __init__(self):
            self.queue = list(split.train.keys())

        def score_sequences(self, seqs):
            out = np.stack([scores_by_user[u] for u in self.queue[:len(seqs)]])
            self.queue = self.queue[len(seqs):]
            return out

    report = evaluate(Replay(), split, ds, negatives=100, seed=9)

    hr_sum = ndcg_sum = 0.0
    from seqaug.numerics import seed_stream
    for u in split.train:
        stream = seed_stream(9, "eval-neg", int(u))
        negs, _ = ev.sample_eval_negatives(ds.num_items, set(ds.users[u]), 100, stream)
        cand = [split.test_target[u]] + negs
        row = scores_by_user[u]
        # independent oracle: stable sort descending, target placed after ties
        scored = sorted(((row[v - 1], v != split.test_target[u], v) for v in cand),
                        key=lambda s: (-s[0], s[1]))
        rank = 1 + [s[2] for s in scored].index(split.test_target[u])
        # pessimistic: any equal-scored negative outranks the target
        ties_better = sum(1 for v in cand[1:] if row[v - 1] == row[split.test_target[u] - 1])
        rank += ties_better
        hr, ndcg = rank_metrics(rank, k=10, num_candidates=len(cand))
        hr_sum += hr
        ndcg_sum += ndcg
    assert report.overall["hr@10"] == pytest.approx(hr_sum / 20)
    assert report.overall["ndcg@10"] == pytest.approx(ndcg_sum / 20)


def test_metrics_invariant_under_monotone_transform(rng):
    ds = make_dataset(rng, n_users=30, n_items=200)
    split = leave_one_out_split(ds)
    base = RandomScorer(5, ds.num_items).score_sequences([split.train[u] for u in split.train])
    by_user = dict(zip(split.train.keys(), base))

    def run(transform):
        class T:
            def __init__(self):
                self.queue = list(split.train.keys())

            def score_sequences(self, seqs):
                out = np.stack([transform(by_user[u]) for u in self.queue[:len(seqs)]])
                self.queue = self.queue[len(seqs):]
                return out

        return evaluate(T(), split, ds, negatives=100, seed=2)

    r1 = run(lambda x: x)
    r2 = run(lambda x: np.exp(3 * x) + 7)
    assert r1.overall == r2.overall


def test_group_counts_sum_to_total(rng):
    ds = make_dataset(rng, n_users=60)
    split = leave_one_out_split(ds)
    report = evaluate(RandomScorer(0, ds.num_items), split, ds, negatives=50, seed=1)
    assert sum(report.n_users.values()) == 60
    # partition check through an independent recount
    recount = {"short": 0, "medium": 0, "long": 0}
    for s in ds.users.values():
        n = len(s)
        recount["short" if n <= 5 else "medium" if n <= 20 else "long"] += 1
    assert report.n_users == recount


def test_pessimistic_tie_breaking():
    ds = InteractionDataset(users={1: [1, 2, 3]}, num_items=150)
    split = leave_one_out_split(ds)
    report = evaluate(FixedScorer(np.zeros(150)), split, ds, negatives=100, seed=1)
    # all scores equal: target ranked last -> rank 101, no hit
    assert report.overall["hr@10"] == 0.0


def test_report_json_roundtrip(tmp_path, rng):
    ds = make_dataset(rng, n_users=12)
    report = evaluate(RandomScorer(3, ds.num_items), leave_one_out_split(ds), ds,
                      negatives=20, seed=4)
    path = tmp_path / "report.json"
    save_json(path, report.to_dict())
    with open(path, encoding="utf-8") as f:
        again = EvalReport(**json.load(f))
    assert again.to_dict() == report.to_dict()


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_empty_group_left_out_and_report_is_strict_json(tmp_path, rng):
    ds = make_dataset(rng, n_users=30, max_len=21)  # no user is long (> 20 items)
    report = evaluate(RandomScorer(5, ds.num_items), leave_one_out_split(ds), ds,
                      negatives=20, seed=2)
    assert report.n_users["long"] == 0
    assert set(report.per_group) == {"short", "medium"}
    path = tmp_path / "report.json"
    save_json(path, report.to_dict())
    with open(path, encoding="utf-8") as f:
        loaded = json.load(f, parse_constant=_reject_constant)
    assert "long" not in loaded["per_group"] and loaded["n_users"]["long"] == 0

    with_long = _report(0.4, 0.2)
    merged = average_reports([EvalReport(**loaded), with_long])
    assert merged.per_group["long"] == with_long.per_group["long"]
    for g in ("short", "medium"):
        assert merged.per_group[g]["hr@10"] == pytest.approx(
            (report.per_group[g]["hr@10"] + 0.4) / 2)
    assert "long" not in average_reports([report, report]).per_group


def test_save_json_refuses_nan(tmp_path):
    bad = _report(float("nan"), 0.1)
    with pytest.raises(ValueError):
        save_json(tmp_path / "report.json", bad.to_dict())
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# averaging and comparison


def _report(hr, ndcg):
    group = {g: {"hr@10": hr, "ndcg@10": ndcg} for g in ("short", "medium", "long")}
    return EvalReport(overall={"hr@10": hr, "ndcg@10": ndcg}, per_group=group,
                      n_users={"short": 1, "medium": 1, "long": 1}, seeds=[1],
                      negatives=100)


def test_average_reports_means():
    merged = average_reports([_report(0.2, 0.1), _report(0.4, 0.3)])
    assert merged.overall["hr@10"] == pytest.approx(0.3)
    assert merged.overall["ndcg@10"] == pytest.approx(0.2)
    assert merged.seeds == [1, 1]


def test_compare_single_row():
    text, csv_text = compare({"only": _report(0.5, 0.25)})
    assert "only" in text and "0.5000*" in text
    rows = list(csv.reader(io.StringIO(csv_text)))
    assert rows[0][:3] == ["strategy", "hr@10", "ndcg@10"]
    assert rows[1][0] == "only"


def test_compare_marks_ties_as_best():
    text, _ = compare({"a": _report(0.5, 0.25), "b": _report(0.5, 0.2)})
    lines = text.splitlines()
    assert "0.5000*" in lines[1] and "0.5000*" in lines[2]  # tied hr: both starred
    assert "0.2500*" in lines[1] and "0.2000*" not in lines[2]


def test_compare_csv_full_precision_roundtrip():
    r = _report(1 / 3, 2 / 7)
    _, csv_text = compare({"x": r})
    rows = list(csv.reader(io.StringIO(csv_text)))
    assert float(rows[1][1]) == r.overall["hr@10"]
    assert float(rows[1][2]) == r.overall["ndcg@10"]
