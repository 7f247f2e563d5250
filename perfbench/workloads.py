"""The four benchmark workloads.

Each workload builds its inputs from ``configs/synth.cfg`` and the seed in
``setup``, then ``run_pass`` makes the timed stage calls through the public
``pipeline.run_*`` functions. ``check`` verifies the outputs of a pass,
``expected_calls`` gives the per-pass call counts a traced pass must show,
and ``work`` is the pass's size in the workload's own unit.

Sizes are chosen so that one pass takes a few seconds on two cores: a run
then holds several passes and reports their median.
"""

import json
import math
import os
from collections import Counter
from dataclasses import replace

from seqaug import pipeline, synth
from seqaug.config import load_config
from seqaug.dataset import (build_diffusion_training_set, leave_one_out_split,
                            load_sequences)
from seqaug.numerics import Conv2d, Module

GAMMAS = (0.1, 1.0, 10.0)


def count_convs(obj):
    """Conv2d modules reachable from ``obj``; each runs once per forward."""
    if isinstance(obj, Conv2d):
        return 1
    if isinstance(obj, Module):
        return sum(count_convs(v) for v in vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return sum(count_convs(v) for v in obj)
    return 0


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def read_strict_json(path):
    """json.load that refuses the bare NaN / Infinity tokens Python emits."""
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f, parse_constant=_reject_constant)


def check_losses(name, losses):
    bad = [v for v in losses if not math.isfinite(v)]
    return [f"{name}: {len(bad)} of {len(losses)} losses are not finite"] if bad else []


def check_augmented(aug_dir, raw, M):
    """The emitted sequences reload and hold exactly M in-range prefix items
    in front of each user's unchanged history."""
    try:
        ds = load_sequences(os.path.join(aug_dir, "sequences.tsv"))
    except (OSError, ValueError) as exc:
        return [f"{aug_dir}: augmented sequences do not reload: {exc}"]
    if set(ds.users) != set(raw.users):
        return [f"{aug_dir}: user set differs from the raw data"]
    bad = [u for u, seq in raw.users.items()
           if ds.users[u][M:] != seq
           or len(ds.users[u]) != len(seq) + M
           or not all(1 <= v <= raw.num_items for v in ds.users[u][:M])]
    return [f"{aug_dir}: {len(bad)} users lack exactly {M} prefix items in "
            f"[1, {raw.num_items}]"] if bad else []


def check_report(path):
    try:
        report = read_strict_json(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: not strict JSON: {exc}"]
    values = list(report["overall"].values())
    values += [v for group in report["per_group"].values() for v in group.values()]
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    return [f"{path}: HR/NDCG outside [0, 1]: {bad}"] if bad else []


def short_group(report_path, k):
    group = read_strict_json(report_path)["per_group"]["short"]
    return group[f"ndcg@{k}"], group[f"hr@{k}"]


def prefix_quality(aug_dir, raw, M, synth_items):
    """Plausibility of generated prefixes against the true synthetic chain.

    Item ids are mapped back to the synthetic generator's ids through the
    vocabulary, because preprocessing renumbers items.
    """
    to_raw = {dense: raw_id for raw_id, dense in raw.item_vocab.items()}
    aug = load_sequences(os.path.join(aug_dir, "sequences.tsv")).users
    chain = pairs = links = in_history = 0
    popularity = Counter()
    for u, seq in raw.users.items():
        prefix = aug[u][:M]
        p = [to_raw[v] for v in prefix + [seq[0]]]
        for a, b in zip(p[:M - 1], p[1:M]):
            chain += synth.transition_probability(a, b, synth_items) > 0
            pairs += 1
        links += synth.transition_probability(p[M - 1], p[M], synth_items) > 0
        history = set(seq)
        in_history += sum(v in history for v in prefix)
        popularity.update(prefix)
    generated = M * len(raw.users)
    return {
        "prefix_chain_rate": chain / pairs,
        "first_link_rate": links / len(raw.users),
        "in_history_ratio": in_history / generated,
        "top5_item_share": sum(c for _, c in popularity.most_common(5)) / generated,
    }


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Shared set-up: synthetic interactions, then the preprocess stage."""

    name = ""
    alias = ()         # (workload metric name, the metric carrying it, its unit)
    sizes = {}         # synth.cfg overrides that size the workload

    def __init__(self, config_path, seed, sizes=None):
        self.cfg = load_config(config_path, {**self.sizes, **(sizes or {}), "seed": seed})

    def setup(self, work):
        self.raw_dir = os.path.join(work, "raw")
        path = pipeline.run_synth(self.cfg, os.path.join(work, "synth"))
        pipeline.run_preprocess(self.cfg, path, self.raw_dir)
        self.raw = pipeline.load_dataset_dir(self.raw_dir)

    def srs_counts(self, data_dir):
        """Examples in ``data_dir`` and the call counts of one backbone
        training plus evaluation on it. Validation and evaluation both score
        users in chunks of 256."""
        cfg = self.cfg
        train = leave_one_out_split(load_sequences(os.path.join(data_dir, "sequences.tsv"))).train
        examples = sum(len(s) - 1 for s in train.values())
        steps = math.ceil(examples / cfg.srs_batch_size) * cfg.srs_epochs
        score_chunks = math.ceil(len(train) / 256)
        return examples, {
            "numerics.backward": steps,
            "numerics.adam_step": steps,
            "srs.sample_negatives": examples * cfg.srs_epochs,
            "srs.train": 1,
            "srs.score_sequences": score_chunks * (cfg.srs_epochs + 1),
            "srs.encode": steps + score_chunks * (cfg.srs_epochs + 1),
            "evaluation.evaluate": 1,
            "pipeline.run_train_srs": 1,
            "pipeline.run_evaluate": 1,
        }


class TrainDiffusion(Workload):
    """SU-Net training at synth.cfg shapes: conv2d forward, graph backward
    and Adam. No recommender code runs."""

    name = "train-diffusion"
    alias = ("diff_pairs_per_s", "work_per_s", "pairs*epochs/s")
    sizes = {"diff_epochs": 5}

    def setup(self, work):
        super().setup(work)
        self.pairs = len(build_diffusion_training_set(self.raw, self.cfg.M, self.cfg.exclude_test))

    def work(self):
        return self.pairs * self.cfg.diff_epochs

    def run_pass(self, out):
        self.model, self.losses = pipeline.run_train_diffusion(self.cfg, self.raw_dir, out)

    def check(self, out):
        return {"diff_loss_final": self.losses[-1]}, check_losses("diffusion", self.losses)

    def expected_calls(self):
        steps = math.ceil(self.pairs / self.cfg.diff_batch_size) * self.cfg.diff_epochs
        return {
            "sunet.predict_noise": steps,
            "numerics.conv2d": steps * count_convs(self.model),
            "diffusion.training_loss": steps,
            "numerics.backward": steps,
            "numerics.adam_step": steps,
            "diffusion.reverse_step": 0,
            "srs.encode": 0,
            "pipeline.run_train_diffusion": 1,
        }


class AugmentCF(Workload):
    """Classifier-free guided sampling of M items for every user. gamma > 0
    doubles each batch; the engine runs under no_grad, so no backward."""

    name = "augment-cf"
    alias = ("sample_users_per_s", "work_per_s", "users/s")
    sizes = {"synth_users": 128, "diff_epochs": 50}

    def setup(self, work):
        super().setup(work)
        self.model_dir = os.path.join(work, "diffusion-model")
        self.model, _ = pipeline.run_train_diffusion(self.cfg, self.raw_dir, self.model_dir)

    def work(self):
        return len(self.raw.users)

    def run_pass(self, out):
        pipeline.run_augment(self.cfg, self.raw_dir, out, diffusion_dir=self.model_dir)

    def check(self, out):
        problems = check_augmented(out, self.raw, self.cfg.M)
        if problems:
            return {}, problems
        return prefix_quality(out, self.raw, self.cfg.M, self.cfg.synth_items), []

    def expected_calls(self):
        cfg = self.cfg
        chunks = math.ceil(len(self.raw.users) / cfg.sample_batch)
        return {
            "diffusion.reverse_step": cfg.T * chunks,
            "sunet.predict_noise": cfg.T * chunks,
            "numerics.conv2d": cfg.T * chunks * count_convs(self.model),
            "diffusion.round_to_items": chunks,
            "numerics.backward": 0,
            "numerics.adam_step": 0,
            "srs.encode": 0,
            "pipeline.run_augment": 1,
        }


class TrainSRS(Workload):
    """Recommender training with per-epoch validation, then evaluation, on
    a random_seq-augmented copy of synth: same lengths as a diffusion-
    augmented set, no diffusion model needed. No conv2d runs."""

    name = "train-srs"
    alias = ("srs_examples_per_s", "work_per_s", "examples*epochs/s")
    sizes = {"synth_users": 200, "srs_epochs": 1}

    def setup(self, work):
        super().setup(work)
        self.aug_dir = os.path.join(work, "augmented")
        pipeline.run_augment(replace(self.cfg, strategy="random_seq"), self.raw_dir, self.aug_dir)
        self.examples, self.calls = self.srs_counts(self.aug_dir)

    def work(self):
        return self.examples * self.cfg.srs_epochs

    def run_pass(self, out):
        srs_dir = os.path.join(out, "srs-model")
        _, self.history = pipeline.run_train_srs(self.cfg, self.aug_dir, srs_dir)
        pipeline.run_evaluate(self.cfg, srs_dir, self.aug_dir, self.raw_dir,
                              os.path.join(out, "report"))

    def check(self, out):
        report = os.path.join(out, "report", "report.json")
        problems = check_losses("srs", self.history["loss"]) + check_report(report)
        quality = {"srs_loss_final": self.history["loss"][-1]}
        if not problems:
            quality["ndcg10_short"], quality["hr10_short"] = short_group(report, self.cfg.eval_k)
        return quality, problems

    def expected_calls(self):
        return {**self.calls, "numerics.conv2d": 0, "sunet.predict_noise": 0}


class SweepGamma(Workload):
    """The researcher's experiment: a gamma sweep with one seed. The only
    workload where the pipeline repeats a stage (diffusion is retrained
    once per gamma although gamma only affects sampling)."""

    name = "sweep-gamma"
    alias = ("experiment_s", "pass_s", "s")
    sizes = {"synth_users": 150, "diff_epochs": 2, "srs_epochs": 1}

    def work(self):
        return len(self.raw.users) * len(GAMMAS)

    def run_pass(self, out):
        self.reports, _ = pipeline.run_sweep(self.cfg, self.raw_dir, out,
                                             gamma_values=list(GAMMAS), seeds=[self.cfg.seed])

    def _run_dir(self, out, gamma):
        return os.path.join(out, f"gamma-{gamma}", f"{self.cfg.strategy}-seed{self.cfg.seed}")

    def check(self, out):
        cfg = self.cfg
        problems, ndcg, hr, losses = [], [], [], []
        if len(self.reports) != len(GAMMAS):
            problems.append(f"sweep returned {len(self.reports)} reports for {len(GAMMAS)} gammas")
        for gamma in GAMMAS:
            run = self._run_dir(out, gamma)
            with open(os.path.join(run, "diffusion-model", "losses.json"), encoding="utf-8") as f:
                diff_losses = json.load(f)
            with open(os.path.join(run, "srs-model", "history.json"), encoding="utf-8") as f:
                srs_losses = json.load(f)["loss"]
            report = os.path.join(run, "report", "report.json")
            problems += check_losses(f"gamma={gamma} diffusion", diff_losses)
            problems += check_losses(f"gamma={gamma} srs", srs_losses)
            problems += check_augmented(os.path.join(run, "augmented"), self.raw, cfg.M)
            problems += check_report(report)
            problems += check_report(os.path.join(out, f"report-gamma-{gamma}.json"))
            losses.append(diff_losses[-1])
            if not problems:
                n, h = short_group(report, cfg.eval_k)
                ndcg.append(n)
                hr.append(h)
        self.out = out
        quality = {"diff_loss_final": sum(losses) / len(losses)}
        if not problems:
            quality["ndcg10_short"] = sum(ndcg) / len(ndcg)
            quality["hr10_short"] = sum(hr) / len(hr)
        return quality, problems

    def expected_calls(self):
        cfg, g = self.cfg, len(GAMMAS)
        run = self._run_dir(self.out, GAMMAS[-1])
        model, _ = pipeline.load_diffusion_model(os.path.join(run, "diffusion-model"))
        pairs = len(build_diffusion_training_set(self.raw, cfg.M, cfg.exclude_test))
        diff_steps = math.ceil(pairs / cfg.diff_batch_size) * cfg.diff_epochs
        chunks = math.ceil(len(self.raw.users) / cfg.sample_batch)
        _, srs_calls = self.srs_counts(os.path.join(run, "augmented"))
        predicts = g * (diff_steps + cfg.T * chunks)
        return {
            "pipeline.run_train_diffusion": g,
            "pipeline.run_augment": g,
            "pipeline.run_train_srs": g,
            "pipeline.run_evaluate": g,
            "diffusion.reverse_step": g * cfg.T * chunks,
            "sunet.predict_noise": predicts,
            "numerics.conv2d": predicts * count_convs(model),
            "numerics.backward": g * (diff_steps + srs_calls["numerics.backward"]),
        }


WORKLOADS = {w.name: w for w in (TrainDiffusion, AugmentCF, TrainSRS, SweepGamma)}
