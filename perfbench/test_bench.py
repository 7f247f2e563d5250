"""Fast checks of the benchmark itself, at tiny workload sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CONFIG = os.path.join(ROOT, "configs", "synth.cfg")
TINY = {
    "train-diffusion": {"synth_users": 60, "diff_epochs": 1},
    "augment-cf": {"synth_users": 40, "diff_epochs": 1, "T": 4},
    "train-srs": {"synth_users": 60},
    "sweep-gamma": {"synth_users": 60, "diff_epochs": 1, "T": 2},
}
# The layer split each workload exists for, as per-pass traced values.
SPLIT = {
    "train-diffusion": {"srs.encode.calls": 0, "diffusion.reverse_step.calls": 0},
    "augment-cf": {"numerics.backward.calls": 0, "sunet.predict_noise.rows": 2 * 40 * 4},
    "train-srs": {"numerics.conv2d.calls": 0, "sunet.predict_noise.calls": 0},
    "sweep-gamma": {"pipeline.run_train_diffusion.calls": 3},
}
# Numbers that depend only on the arithmetic, never on timing.
RESULTS = ("diff_loss_final", "srs_loss_final", "ndcg10_short", "hr10_short",
           "prefix_chain_rate", "first_link_rate", "in_history_ratio", "top5_item_share")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_tiny(name, trace, tmp_path):
    lines = []
    result = bench.run(name, 1, 0.0, trace, str(tmp_path / f"{name}-{int(trace)}"), CONFIG,
                       sizes=TINY[name], log=lines.append)
    named = {}
    for line in lines:
        if line.startswith("metric "):
            _, metric, value, _unit = line.split(" ")
            named[metric] = float(value)
    return result, named, lines


@pytest.mark.parametrize("name", list(TINY))
def test_workload_emits_every_metric_and_tracing_changes_no_result(name, tmp_path):
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(TINY) == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    plain, plain_named, plain_log = run_tiny(name, False, tmp_path)
    traced, traced_named, traced_log = run_tiny(name, True, tmp_path)
    assert plain["correct"], plain_log
    assert traced["correct"], traced_log
    assert plain["failed"] == traced["failed"] == 0
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for metric, value in SPLIT[name].items():
        assert traced["metrics"][metric]["value"] == value
    for e2e in spec["end_to_end"]:
        assert plain["metrics"][e2e["name"]]["value"] > 0
    shared = [k for k in RESULTS if k in plain_named]
    assert shared, plain_log
    assert {k: plain_named[k] for k in shared} == {k: traced_named[k] for k in shared}
    for key in shared:
        assert traced["metrics"][bench.QUALITY[key]]["value"] == plain_named[key]


def test_synth_cfg_sunet_runs_17_convolutions_per_prediction():
    from seqaug import pipeline
    from seqaug.config import load_config
    from seqaug.numerics import seed_stream
    from seqaug.sunet import SUNet, SUNetConfig

    cfg = load_config(CONFIG)
    acfg = pipeline._augment_config(cfg)
    net = SUNetConfig(channels=acfg.M, embed_dim=acfg.embed_dim, levels=acfg.levels,
                      channel_mult=acfg.channel_mult, base_width=acfg.base_width,
                      res_blocks=acfg.res_blocks)
    assert workloads.count_convs(SUNet(net, cfg.synth_items, seed_stream(0))) == 17


def test_tracer_restores_every_patch_site():
    from seqaug import pipeline
    from seqaug.numerics import Conv2d

    before = (Conv2d.__call__, pipeline.evaluate, pipeline.run_augment)
    with Tracer("float32"):
        assert Conv2d.__call__ is not before[0]
        assert pipeline.evaluate.__wrapped__ is before[1]
    assert (Conv2d.__call__, pipeline.evaluate, pipeline.run_augment) == before


def test_report_check_rejects_bare_nan(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"overall": {"hr@10": 0.5}, "per_group": {"long": {"hr@10": NaN}}}')
    assert workloads.check_report(str(path))
    path.write_text('{"overall": {"hr@10": 1.5}, "per_group": {}}')
    assert workloads.check_report(str(path))
    path.write_text('{"overall": {"hr@10": 0.5}, "per_group": {"long": {"hr@10": 0.0}}}')
    assert workloads.check_report(str(path)) == []


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    spec = load_spec()
    proc = subprocess.run(spec["command"] + ["--workload", "train-diffusion", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
