"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 7, 8, and 10 train on the synthetic benchmark and take tens of
minutes on a laptop CPU and carry the ``slow`` marker (``-m "not slow"``
leaves them out); everything else finishes in seconds.
"""

import os
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from seqaug import diffusion as dm
from seqaug import numerics as nd
from seqaug import pipeline, srs
from seqaug.config import RunConfig, load_config
from seqaug.dataset import (InteractionDataset, build_diffusion_training_set,
                            leave_one_out_split)
from seqaug.evaluation import evaluate, rank_metrics, sample_eval_negatives
from seqaug.numerics import Tensor, seed_stream
from seqaug.schedule import make_schedule, sigma2_at
from seqaug.srs import SrsModel
from seqaug.sunet import SUNet, SUNetConfig

CONFIG_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synth.cfg")
SEEDS = (1, 2, 3)


def check(number, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({time.time() - t0:.1f}s) {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared synthetic-benchmark artifacts (criteria 7, 8, 10)


@pytest.fixture(scope="session")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    cfg = load_config(CONFIG_PATH)
    raw_dir = os.path.join(root, "raw")
    path = pipeline.run_synth(cfg, raw_dir)
    ds = pipeline.run_preprocess(cfg, path, raw_dir)
    return SimpleNamespace(root=str(root), cfg=cfg, raw_dir=raw_dir, ds=ds,
                           split=leave_one_out_split(ds))


@pytest.fixture(scope="session")
def classifier(env):
    out = os.path.join(env.root, "classifier")
    cfg = replace(env.cfg, seed=1, srs_epochs=15, srs_dropout=0.2)
    model, _ = pipeline.run_train_srs(cfg, env.raw_dir, out, role="classifier")
    return model


@pytest.fixture(scope="session")
def diffusion_runs(env):
    """Per-seed trained diffusion models (directories + loaded models)."""
    runs = {}
    for seed in SEEDS:
        out = os.path.join(env.root, f"diffusion-seed{seed}")
        cfg = replace(env.cfg, seed=seed)
        model, losses = pipeline.run_train_diffusion(cfg, env.raw_dir, out)
        runs[seed] = SimpleNamespace(dir=out, model=model, losses=losses, cfg=cfg)
    return runs


def _sample_augmentations(env, model, gamma, seed):
    """Rounded M-item prefixes for every user, conditioned on the raw
    sequence minus its test item."""
    acfg = replace(env.cfg, seed=seed, gamma=gamma)
    sched = acfg.schedule()
    users = list(env.ds.users.keys())
    out = {}
    for start in range(0, len(users), acfg.sample_batch):
        chunk = users[start:start + acfg.sample_batch]
        raws = [env.ds.users[u][:-1] for u in chunk]
        x = dm.sample(model, raws, acfg.M, gamma, sched, seed=seed, user_keys=chunk)
        ids, _ = dm.round_to_items(x, model.item_emb.data)
        for i, u in enumerate(chunk):
            out[u] = [int(v) for v in ids[i]]
    return out


def _mean_first_item_loglik(env, classifier, aug_items):
    users = list(env.ds.users.keys())
    vals = []
    for start in range(0, len(users), 256):
        chunk = users[start:start + 256]
        scores = classifier.score_sequences([aug_items[u] for u in chunk])
        for i, u in enumerate(chunk):
            v1 = env.ds.users[u][0]
            vals.append(float(-np.logaddexp(0.0, -scores[i, v1 - 1])))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# criteria


def test_01_schedule_exactness():
    t0 = time.time()
    s = make_schedule("linear", 4, 0.1, 0.4)
    ab_err = np.max(np.abs(s.alpha_bar - np.array([0.9, 0.72, 0.504, 0.3024])))
    sig_err = abs(sigma2_at(s, 2) - 0.0714286)
    ok = ab_err < 1e-12 and sig_err < 1e-6
    check(1, "schedule exactness", ok,
          f"alpha_bar err {ab_err:.2e} (<1e-12), sigma2_2 err {sig_err:.2e} (<1e-6)", t0)


def test_02_forward_marginal_equivalence():
    t0 = time.time()
    sched = make_schedule("linear", 10, 0.02, 0.25)
    rng = np.random.default_rng(42)
    x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    n = 100_000
    batch = np.broadcast_to(x0, (n,) + x0.shape)
    iterated = dm.iterated_forward(batch, 10, sched, rng)
    closed = dm.forward_sample(Tensor(batch.astype(np.float64)), 10,
                               Tensor(rng.standard_normal(batch.shape)), sched).data
    mean_diff = np.abs(iterated.mean(axis=0) - closed.mean(axis=0))
    mean_se = np.sqrt(iterated.var(axis=0) / n + closed.var(axis=0) / n)
    va, vb = iterated.var(axis=0), closed.var(axis=0)
    var_diff = np.abs(va - vb)
    var_se = np.sqrt(2.0 / (n - 1)) * np.sqrt(va**2 + vb**2)
    ok = bool(np.all(mean_diff < 3 * mean_se) and np.all(var_diff < 3 * var_se))
    check(2, "forward-marginal equivalence", ok,
          f"max mean diff {mean_diff.max():.4f} (3se {3 * mean_se.max():.4f}), "
          f"max var diff {var_diff.max():.4f} (3se {3 * var_se.max():.4f})", t0)


def test_03_gradient_fidelity():
    t0 = time.time()
    with nd.precision("float64"):
        rng = np.random.default_rng(5)
        net = SUNet(SUNetConfig(channels=2, embed_dim=16, levels=2, channel_mult=(1, 2),
                                base_width=8, res_blocks=2),
                    num_items=20, rng=seed_stream(0, "accept-sunet"))
        x = Tensor(rng.standard_normal((2, 2, 16)), requires_grad=True)
        c = Tensor(rng.standard_normal((2, 16)), requires_grad=True)
        target = rng.standard_normal((2, 2, 16))

        def sunet_loss():
            diff = nd.sub(net.predict_noise(x, 5, c), target)
            return nd.mean(nd.mul(diff, diff))

        sunet_err = nd.finite_difference_check(
            sunet_loss, list(net.parameters().values()) + [x, c], n_coords=64, rng=rng)

        model = SrsModel(RunConfig(srs_embed_dim=16, srs_blocks=1, srs_max_len=6, srs_dropout=0.0),
                         15, seed_stream(0, "accept-srs"))
        batch = [([3, 1, 4], 7, 9), ([2, 2], 5, 8), ([10, 11, 12, 13], 1, 6)]

        def srs_loss():
            return srs._batch_loss(model, batch, train=False, rng=None)

        srs_err = nd.finite_difference_check(
            srs_loss, list(model.parameters().values()), n_coords=64, rng=rng)
    ok = sunet_err < 1e-3 and srs_err < 1e-3
    check(3, "gradient fidelity", ok,
          f"sunet fd rel err {sunet_err:.2e}, srs fd rel err {srs_err:.2e} (<1e-3)", t0)


def test_04_guidance_algebra():
    t0 = time.time()
    rng = np.random.default_rng(6)
    sched = make_schedule("linear", 10, 0.02, 0.2)
    net = SUNet(SUNetConfig(channels=2, embed_dim=16, levels=2, channel_mult=(1, 2),
                            base_width=8, res_blocks=1),
                num_items=10, rng=seed_stream(1, "accept-guidance"))
    x = rng.standard_normal((2, 2, 16)).astype(np.float32)
    c = rng.standard_normal((2, 16)).astype(np.float32)
    with nd.no_grad():
        cond = net.predict_noise(x, 4, c).data

    cf_zero = dm.guide_noise(net, x, 4, c, 0.0, sched)
    bitwise = np.array_equal(cf_zero, cond)

    fixed = rng.standard_normal((1, 2, 16))

    class Stub:
        config = net.config
        item_emb = Tensor(np.zeros((11, 16)))

        def predict_noise(self, x_t, t, cc):
            return nd.as_tensor(np.broadcast_to(fixed, (np.shape(x_t)[0], 2, 16)).copy())

    invariant = all(
        np.array_equal(dm.guide_noise(Stub(), x, 4, c, g, sched),
                       np.broadcast_to(fixed, (2, 2, 16)))
        for g in (0.0, 0.1, 1.0, 10.0, 100.0))

    phi = SrsModel(RunConfig(srs_embed_dim=16, srs_blocks=1, srs_max_len=4, srs_dropout=0.0),
                   10, seed_stream(2, "accept-clf"))
    cg_zero = dm.guide_noise(net, x, 4, c, 0.0, sched, classifier=phi, raw_first_items=[1, 2])
    cg_ok = np.array_equal(cg_zero, cond)
    ok = bitwise and invariant and cg_ok
    check(4, "guidance algebra", ok,
          f"cf gamma0 bitwise={bitwise}, equal-output gamma-invariant={invariant}, "
          f"cg gamma0 unguided={cg_ok}", t0)


def test_05_rounding_oracle():
    t0 = time.time()
    rng = np.random.default_rng(7)
    table = np.vstack([np.zeros(8), rng.standard_normal((50, 8))])
    x = rng.standard_normal((100, 1, 8))
    ids, fallbacks = dm.round_to_items(x, table)
    exact = True
    for i in range(100):
        sims = [x[i, 0] @ table[v] / (np.linalg.norm(x[i, 0]) * np.linalg.norm(table[v]))
                for v in range(1, 51)]
        exact &= ids[i, 0] == int(np.argmax(sims)) + 1
    table2 = table.copy()
    table2[13] *= 7.5
    ids2, _ = dm.round_to_items(x, table2)
    rescale_ok = np.array_equal(ids, ids2)
    ok = exact and rescale_ok and fallbacks == 0
    check(5, "rounding oracle", ok,
          f"brute-force match={exact}, positive-rescaling invariant={rescale_ok}", t0)


def test_06_metric_oracle():
    t0 = time.time()
    closed = (rank_metrics(1) == (1.0, 1.0)
              and rank_metrics(3)[1] == pytest.approx(0.5)
              and rank_metrics(11) == (0.0, 0.0))

    rng = np.random.default_rng(8)
    users = {u: [int(v) for v in rng.integers(1, 401, size=int(rng.integers(3, 15)))]
             for u in range(1, 2501)}
    ds = InteractionDataset(users=users, num_items=400)
    split = leave_one_out_split(ds)

    class RandomScorer:
        def __init__(self):
            self.rng = np.random.default_rng(99)

        def score_sequences(self, seqs):
            return self.rng.random((len(seqs), 400))

    report = evaluate(RandomScorer(), split, ds, negatives=100, seed=1)
    hr = report.overall["hr@10"]
    random_ok = abs(hr - 10 / 101) <= 0.02

    # independent sort oracle on 20 users
    sub_users = dict(list(users.items())[:20])
    sub = InteractionDataset(users=sub_users, num_items=400)
    sub_split = leave_one_out_split(sub)
    frozen = {u: np.random.default_rng(1000 + u).random(400) for u in sub_users}

    class Replay:
        def __init__(self):
            self.queue = list(sub_split.train.keys())

        def score_sequences(self, seqs):
            out = np.stack([frozen[u] for u in self.queue[:len(seqs)]])
            self.queue = self.queue[len(seqs):]
            return out

    module_report = evaluate(Replay(), sub_split, sub, negatives=100, seed=3)
    hr_sum = ndcg_sum = 0.0
    for u in sub_users:
        stream = seed_stream(3, "eval-neg", int(u))
        negs, _ = sample_eval_negatives(400, set(sub_users[u]), 100, stream)
        cand = [sub_split.test_target[u]] + negs
        row = frozen[u]
        order = sorted(cand, key=lambda v: (-row[v - 1], v == sub_split.test_target[u]))
        rank = 1 + order.index(sub_split.test_target[u])
        h, n = rank_metrics(rank, k=10, num_candidates=len(cand))
        hr_sum, ndcg_sum = hr_sum + h, ndcg_sum + n
    oracle_ok = (module_report.overall["hr@10"] == pytest.approx(hr_sum / 20)
                 and module_report.overall["ndcg@10"] == pytest.approx(ndcg_sum / 20))
    ok = bool(closed and random_ok and oracle_ok)
    check(6, "metric oracle", ok,
          f"closed-forms={closed}, random-scorer hr {hr:.4f} (target 0.099+-0.02), "
          f"sort-oracle match={oracle_ok}", t0)


@pytest.mark.slow
def test_07_guidance_steers_preference(env, classifier, diffusion_runs):
    t0 = time.time()
    gaps = {}
    ok = True
    for seed in SEEDS:
        model = diffusion_runs[seed].model
        ll = {}
        for gamma in (0.0, 1.0):
            aug = _sample_augmentations(env, model, gamma, seed)
            ll[gamma] = _mean_first_item_loglik(env, classifier, aug)
        gaps[seed] = (ll[0.0], ll[1.0])
        ok &= ll[1.0] > ll[0.0]
    detail = "; ".join(f"seed {s}: loglik g0 {a:.4f} -> g1 {b:.4f}" for s, (a, b) in gaps.items())
    check(7, "guidance steers preference", ok, detail, t0)


@pytest.mark.slow
def test_08_downstream_longtail_uplift(env, diffusion_runs):
    t0 = time.time()
    short_hr = {s: {} for s in ("none", "random_seq", "diffusion_cf")}
    for seed in SEEDS:
        for strategy in ("none", "random_seq", "diffusion_cf"):
            cfg = replace(env.cfg, seed=seed, strategy=strategy)
            work = os.path.join(env.root, f"run-{strategy}-{seed}")
            aug_dir = os.path.join(work, "augmented")
            if strategy == "diffusion_cf":
                pipeline.run_augment(cfg, env.raw_dir, aug_dir,
                                     diffusion_dir=diffusion_runs[seed].dir)
            else:
                pipeline.run_augment(cfg, env.raw_dir, aug_dir)
            srs_dir = os.path.join(work, "srs")
            pipeline.run_train_srs(cfg, aug_dir, srs_dir, role="backbone")
            report = pipeline.run_evaluate(cfg, srs_dir, aug_dir, env.raw_dir,
                                           os.path.join(work, "report"))
            short_hr[strategy][seed] = report.per_group["short"]["hr@10"]
    means = {s: float(np.mean(list(v.values()))) for s, v in short_hr.items()}
    uplift = means["diffusion_cf"] - means["none"]
    vs_random_seq = means["diffusion_cf"] - means["random_seq"]
    ok = uplift > 0 and vs_random_seq >= 0
    per_seed = ", ".join(f"{seed}: {hr:.4f}" for seed, hr in short_hr["diffusion_cf"].items())
    detail = (f"short-group HR@10 means over seeds {SEEDS}: none {means['none']:.4f}, "
              f"random_seq {means['random_seq']:.4f}, diffusion_cf {means['diffusion_cf']:.4f} "
              f"(uplift {uplift:+.4f}, vs random_seq {vs_random_seq:+.4f}); "
              f"per-seed cf {{{per_seed}}}")
    check(8, "downstream long-tail uplift", ok, detail, t0)


def test_09_alg1_boundary():
    t0 = time.time()
    rng = np.random.default_rng(11)
    ok = True
    for case in range(1000):
        n_users = int(rng.integers(1, 8))
        users = {u: [int(v) for v in rng.integers(1, 30, size=int(rng.integers(3, 15)))]
                 for u in range(1, n_users + 1)}
        ds = InteractionDataset(users=users, num_items=29)
        m = int(rng.integers(1, 16))
        exclude = bool(rng.integers(0, 2))
        expected = {u for u, s in users.items()
                    if (len(s) - (1 if exclude else 0)) > m}
        try:
            pairs = build_diffusion_training_set(ds, m, exclude_test=exclude)
            got = {p[0] for p in pairs}
        except Exception:
            got = set()
        ok &= got == expected
    users = {1: [1, 2, 3], 2: [4, 5, 6, 7]}
    ds = InteractionDataset(users=users, num_items=7)
    try:
        build_diffusion_training_set(ds, M=10)
        error_ok = False
    except Exception as exc:
        error_ok = "M=10" in str(exc)
    ok = bool(ok and error_ok)
    check(9, "training-set boundary", ok,
          f"1000 randomized membership cases + documented error={error_ok}", t0)


@pytest.mark.slow
def test_10_determinism(env, diffusion_runs):
    t0 = time.time()
    cfg = replace(env.cfg, seed=1)
    rerun_diff = os.path.join(env.root, "determinism-diffusion")
    pipeline.run_train_diffusion(cfg, env.raw_dir, rerun_diff)
    paths = []
    for tag, diff_dir in (("a", diffusion_runs[1].dir), ("b", rerun_diff)):
        out = os.path.join(env.root, f"determinism-{tag}")
        pipeline.run_augment(cfg, env.raw_dir, out, diffusion_dir=diff_dir)
        paths.append(os.path.join(out, "sequences.tsv"))
    with open(paths[0], "rb") as f:
        a = f.read()
    with open(paths[1], "rb") as f:
        b = f.read()
    ok = a == b and len(a) > 0
    check(10, "pipeline determinism", ok,
          f"augmented dataset files byte-identical across two runs ({len(a)} bytes)", t0)
