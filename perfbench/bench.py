"""Measure one workload: set it up several times, repeat its stage calls
for a fixed wall time, check every pass's outputs, and fold the timings
(and, in a traced run, the spans) into the benchmark's metrics.

A run is a closed loop with one caller: each stage call waits for the
previous one, and nothing arrives on a schedule.
"""

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

# Set-up repeats at least this often and for at least this long, so that a
# set-up of a few milliseconds still gives a median over many samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0

# name -> unit; the traced-run metrics, identical on every workload. A layer
# the workload does not exercise reports 0.
TIMED = (
    "numerics.conv2d", "numerics.linear", "numerics.layer_norm", "numerics.attention",
    "numerics.embedding", "numerics.backward", "numerics.adam_step",
    "sunet.predict_noise",
    "diffusion.training_loss", "diffusion.reverse_step", "diffusion.round_to_items",
    "augment.train_augmentor", "augment.augment_dataset", "augment.emit",
    "srs.encode", "srs.score_sequences", "srs.sample_negatives", "srs.train",
    "evaluation.evaluate",
    "dataset.load_sequences", "dataset.save_sequences",
    "pipeline.run_train_diffusion", "pipeline.run_augment", "pipeline.run_train_srs",
    "pipeline.run_evaluate",
)
PER_LAYER = {f"{name}.{q}": unit for name in TIMED for q, unit in
             (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({
    "numerics.conv2d.out_mb": "MB",
    "numerics.checkpoint.calls": "count",
    "numerics.checkpoint.self_s": "s",
    "numerics.checkpoint.save_s": "s",
    "numerics.checkpoint.load_s": "s",
    "numerics.checkpoint.bytes": "B",
    "numerics.dtype_mismatch": "count",
    "sunet.predict_noise.rows": "count",
    "diffusion.reverse_step.p50_ms": "ms",
    "diffusion.reverse_step.p90_ms": "ms",
    "diffusion.round_to_items.zero_rows": "count",
    "augment.prefix_chain_rate": "ratio",
    "augment.first_link_rate": "ratio",
    "augment.in_history_ratio": "ratio",
    "augment.top5_item_share": "ratio",
    "augment.train_augmentor.loss_final": "loss",
    "srs.encode.pad_ratio": "ratio",
    "srs.train.loss_final": "loss",
    "evaluation.evaluate.ndcg10_short": "score",
    "evaluation.evaluate.hr10_short": "ratio",
    "trace.passes": "count",
    "trace.overhead_s": "s",
})
# Quality numbers a pass returns, and the per-layer name each is reported under.
QUALITY = {
    "prefix_chain_rate": "augment.prefix_chain_rate",
    "first_link_rate": "augment.first_link_rate",
    "in_history_ratio": "augment.in_history_ratio",
    "top5_item_share": "augment.top5_item_share",
    "diff_loss_final": "augment.train_augmentor.loss_final",
    "srs_loss_final": "srs.train.loss_final",
    "ndcg10_short": "evaluation.evaluate.ndcg10_short",
    "hr10_short": "evaluation.evaluate.hr10_short",
}
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(precision):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "precision": precision,
    }


def run(workload_name, seed, seconds, trace, work, config_path, sizes=None, log=print):
    """One benchmark run. Prints the environment, the named metrics and any
    failed check through ``log``; returns the result object."""
    workload = WORKLOADS[workload_name](config_path, seed, sizes)
    log("env " + json.dumps(environment(workload.cfg.precision)))

    setup_s = time_setups(workload, work)
    tracer = Tracer(workload.cfg.precision) if trace else None
    out = os.path.join(work, "pass")
    seconds_by_kind = {False: [], True: []}
    attempts = {False: 0, True: 0}
    problems, quality, peak_rss_mb = [], None, None
    begin = time.perf_counter()
    while True:
        traced = trace and attempts[False] > attempts[True]
        attempts[traced] += 1
        found = []
        try:
            with tracer if traced else contextlib.nullcontext():
                start = time.perf_counter()
                workload.run_pass(out)
                elapsed = time.perf_counter() - start
            result, found = workload.check(out)
            if traced and not found:
                found = self_check(workload, tracer, attempts[True])
        except Exception:  # a failed stage call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            result, found = None, [f"{'traced ' if traced else ''}pass raised"]
        if result is not None and quality is not None and result != quality:
            found.append(f"pass results {result} differ from the first pass {quality}")
        quality = quality if quality is not None else result
        if found:
            problems += found
        else:
            seconds_by_kind[traced].append(elapsed)
        if peak_rss_mb is None:
            # Through set-up and one pass: later passes only add allocator
            # drift, which would tie the figure to the number of passes.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - begin >= seconds and attempts[False] and attempts[True] >= trace:
            break

    plain, traced_s = seconds_by_kind[False], seconds_by_kind[True]
    if not plain or (trace and not traced_s):
        raise RuntimeError("no pass succeeded: " + "; ".join(problems))
    attempted = sum(attempts.values())
    failed = attempted - len(plain) - len(traced_s)
    pass_s = statistics.median(plain)
    named = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_failed_ratio": (failed / attempted, "ratio"),
        "pass_s": (pass_s, "s"),
        "work_per_s": (workload.work() / pass_s, "1/s"),
    }
    alias, source, unit = workload.alias
    named[alias] = (named[source][0], unit)
    for name, value in (quality or {}).items():
        named[name] = (value, PER_LAYER[QUALITY[name]])
    for name, (value, unit) in named.items():
        log(f"metric {name} {value!r} {unit}")
    log(f"passes untraced={plain!r} traced={traced_s!r} setups={len(setup_s)}")
    for problem in problems:
        log(f"FAILED {problem}")

    if trace:
        metrics = layer_metrics(tracer, len(traced_s), quality or {},
                                statistics.median(traced_s) - pass_s)
        units = PER_LAYER
    else:
        metrics = {name: named[name][0] for name in END_TO_END}
        units = END_TO_END
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def time_setups(workload, work):
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        start = time.perf_counter()
        workload.setup(os.path.join(work, f"setup-{len(setup_s)}"))
        setup_s.append(time.perf_counter() - start)
    return setup_s


def per_pass(tracer, passes):
    calls, self_s, durations, counts = tracer.summary()
    calls = {k: v / passes for k, v in calls.items()}
    self_s = {k: v / passes for k, v in self_s.items()}
    counts = {k: v / passes for k, v in counts.items()}
    return calls, self_s, durations, counts


def self_check(workload, tracer, passes):
    """Call counts of the traced passes so far against the workload's
    config-derived counts; a mismatch means a patch site was missed."""
    calls = per_pass(tracer, passes)[0]
    return [f"trace self-check: {name}.calls = {calls.get(name, 0)}, expected {expected}"
            for name, expected in workload.expected_calls().items()
            if calls.get(name, 0) != expected]


def layer_metrics(tracer, passes, quality, overhead_s):
    """Per-layer metrics, each per traced pass."""
    calls, self_s, durations, counts = per_pass(tracer, passes)
    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    save, load = "numerics.checkpoint.save", "numerics.checkpoint.load"
    m["numerics.checkpoint.calls"] = calls.get(save, 0) + calls.get(load, 0)
    m["numerics.checkpoint.save_s"] = self_s.get(save, 0.0)
    m["numerics.checkpoint.load_s"] = self_s.get(load, 0.0)
    m["numerics.checkpoint.self_s"] = m["numerics.checkpoint.save_s"] + m["numerics.checkpoint.load_s"]
    for name in ("numerics.checkpoint.bytes", "numerics.conv2d.out_mb", "numerics.dtype_mismatch",
                 "sunet.predict_noise.rows", "diffusion.round_to_items.zero_rows"):
        m[name] = counts.get(name, 0)
    steps = durations.get("diffusion.reverse_step")
    p50, p90 = np.percentile(steps, [50, 90]) * 1e3 if steps else (0.0, 0.0)
    m["diffusion.reverse_step.p50_ms"], m["diffusion.reverse_step.p90_ms"] = float(p50), float(p90)
    positions = counts.get("srs.encode.positions", 0)
    m["srs.encode.pad_ratio"] = counts.get("srs.encode.padded", 0) / positions if positions else 0.0
    for name, layer_name in QUALITY.items():
        m[layer_name] = quality.get(name, 0.0)
    m["trace.passes"] = passes
    m["trace.overhead_s"] = overhead_s
    return m
