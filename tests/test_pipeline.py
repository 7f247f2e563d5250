"""Stage-level contracts of ``pipeline``: each stage computes at its
configured precision without changing the caller's, augmentation and
evaluation refuse a checkpoint trained with other settings, for another
role or by another stage, and every stage directory holds one manifest."""

import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from seqaug import numerics as nd
from seqaug import pipeline
from seqaug.cli import main
from seqaug.config import STRATEGIES, load_config
from seqaug.numerics.checkpoint import load_checkpoint, save_checkpoint

SIZES = {"synth_users": 30, "synth_items": 12, "M": 2, "T": 4, "beta_start": 0.02,
         "beta_end": 0.3, "embed_dim": 16, "base_width": 4, "levels": 2, "res_blocks": 1,
         "diff_epochs": 1, "diff_batch_size": 64, "sample_batch": 64, "srs_embed_dim": 8,
         "srs_blocks": 1, "srs_max_len": 8, "srs_epochs": 1, "precision": "float32"}


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """Raw data plus a classifier-free and a classifier-guided diffusion
    checkpoint and a backbone and a reverse recommender checkpoint."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = load_config(None, SIZES)
    raw = os.path.join(root, "raw")
    pipeline.run_preprocess(cfg, pipeline.run_synth(cfg, raw), raw)
    models = {}
    for strategy in ("diffusion_cf", "diffusion_cg"):
        models[strategy] = os.path.join(root, strategy)
        pipeline.run_train_diffusion(replace(cfg, strategy=strategy), raw, models[strategy])
    for role in ("backbone", "reverse"):
        models[role] = os.path.join(root, role)
        pipeline.run_train_srs(cfg, raw, models[role], role=role)
    return cfg, raw, models


def test_float32_stage_leaves_the_callers_precision(stages, tmp_path):
    cfg, raw, _ = stages
    assert nd.default_dtype() is np.float64
    model, _ = pipeline.run_train_srs(cfg, raw, str(tmp_path / "srs"))
    assert model.item_emb.dtype == np.float32
    assert nd.default_dtype() is np.float64


def test_augment_samples_from_a_matching_checkpoint(stages, tmp_path):
    cfg, raw, models = stages
    out = tmp_path / "aug"
    pipeline.run_augment(replace(cfg, gamma=cfg.gamma + 1.0), raw, str(out),
                         diffusion_dir=models["diffusion_cf"])
    assert (out / "sequences.tsv").exists()


@pytest.mark.parametrize("field, value", [("M", 3), ("schedule_family", "cosine"), ("T", 5),
                                          ("beta_start", 0.01), ("beta_end", 0.2)])
def test_augment_refuses_a_checkpoint_trained_with_other_settings(stages, tmp_path, field, value):
    cfg, raw, models = stages
    with pytest.raises(ValueError) as err:
        pipeline.run_augment(replace(cfg, **{field: value}), raw, str(tmp_path / "aug"),
                             diffusion_dir=models["diffusion_cf"])
    message = str(err.value)
    assert field in message and repr(getattr(cfg, field)) in message and repr(value) in message


def test_diffusion_cf_sampling_refuses_a_model_without_an_unconditional_branch(stages, tmp_path):
    cfg, raw, models = stages
    with pytest.raises(ValueError, match="strategy='diffusion_cg'.*strategy='diffusion_cf'"):
        pipeline.run_augment(cfg, raw, str(tmp_path / "aug"),
                             diffusion_dir=models["diffusion_cg"])


def test_diffusion_checkpoint_reloads_the_trained_net_config(stages, tmp_path):
    cfg, raw, _ = stages
    model, _ = pipeline.run_train_diffusion(cfg, raw, str(tmp_path / "diff"))
    assert pipeline.load_diffusion_model(str(tmp_path / "diff"))[0].config == model.config


def test_reverse_gen_refuses_a_forward_model(stages, tmp_path):
    cfg, raw, models = stages
    with pytest.raises(ValueError, match=f"{re.escape(models['backbone'])} has role='backbone', "
                                         "but --reverse-model needs role 'reverse'"):
        pipeline.run_augment(replace(cfg, strategy="reverse_gen"), raw, str(tmp_path / "aug"),
                             reverse_dir=models["backbone"])


def test_classifier_guidance_refuses_a_reverse_model(stages, tmp_path):
    cfg, raw, models = stages
    with pytest.raises(ValueError, match=f"{re.escape(models['reverse'])} has role='reverse', "
                                         "but --classifier needs role 'backbone' or 'classifier'"):
        pipeline.run_augment(replace(cfg, strategy="diffusion_cg"), raw, str(tmp_path / "aug"),
                             diffusion_dir=models["diffusion_cg"],
                             classifier_dir=models["reverse"])


def test_evaluate_refuses_a_reverse_model(stages, tmp_path):
    cfg, raw, models = stages
    with pytest.raises(ValueError, match=f"{re.escape(models['reverse'])} has role='reverse', "
                                         "but evaluate needs role 'backbone' or 'classifier'"):
        pipeline.run_evaluate(cfg, models["reverse"], raw, raw, str(tmp_path / "report"))


def test_evaluate_refuses_a_model_with_a_smaller_catalogue(stages, tmp_path):
    cfg, raw, models = stages
    small = replace(cfg, synth_items=8)
    small_raw = str(tmp_path / "small")
    pipeline.run_preprocess(small, pipeline.run_synth(small, small_raw), small_raw)
    pipeline.run_train_srs(small, small_raw, str(tmp_path / "small-model"))
    with pytest.raises(ValueError, match=f"{re.escape(str(tmp_path / 'small-model'))} has num_items=8, "
                                         f"but the raw data in {re.escape(raw)} has num_items=12"):
        pipeline.run_evaluate(cfg, str(tmp_path / "small-model"), small_raw, raw,
                              str(tmp_path / "report"))


@pytest.mark.parametrize("case", ["srs-as-model", "diffusion-as-classifier",
                                  "diffusion-as-evaluated", "diffusion-without-config"])
def test_cli_refuses_a_checkpoint_of_another_kind(stages, tmp_path, capsys, case):
    _, raw, models = stages
    old = tmp_path / "old"
    old.mkdir()
    arrays, meta = load_checkpoint(os.path.join(models["diffusion_cf"], "model.ckpt"))
    meta["augment"] = meta.pop("config")  # the key an older version wrote
    save_checkpoint(old / "model.ckpt", arrays, meta=meta)
    srs_wanted = "a train-diffusion checkpoint, but a train-srs one is needed"
    args, model_dir, holds = {
        "srs-as-model": (["augment", "--model", models["backbone"]], models["backbone"],
                         "a train-srs checkpoint, but a train-diffusion one is needed"),
        "diffusion-as-classifier": (["augment", "--set", "strategy=diffusion_cg",
                                     "--set", "srs_embed_dim=16", "--model", models["diffusion_cg"],
                                     "--classifier", models["diffusion_cf"]],
                                    models["diffusion_cf"], srs_wanted),
        "diffusion-as-evaluated": (["evaluate", "--model", models["diffusion_cf"], "--raw-data", raw],
                                   models["diffusion_cf"], srs_wanted),
        "diffusion-without-config": (["augment", "--model", str(old)], str(old),
                                     "a train-diffusion checkpoint from an older version with no "
                                     "'config' in its meta; retrain it"),
    }[case]
    sizes = [arg for key, value in SIZES.items() for arg in ("--set", f"{key}={value}")]
    code = main([args[0], *sizes, *args[1:], "--data", raw, "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (1, f"error: {model_dir} holds {holds}\n")


# the files each stage writes beside its manifest.json
STAGE_FILES = {"train-diffusion": {"model.ckpt", "losses.json"},
               "train-srs": {"model.ckpt", "history.json"},
               "augment": {"sequences.tsv", "vocab.tsv"},
               "evaluate": {"report.json"}}


def _refuse_non_finite(token):
    raise ValueError(f"non-finite JSON token {token}")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_stage_directory_holds_one_manifest(stages, tmp_path, strategy):
    cfg, raw, _ = stages
    cfg = replace(cfg, strategy=strategy, srs_embed_dim=cfg.embed_dim).validate()
    pipeline.run_pipeline_once(cfg, raw, str(tmp_path))
    run = tmp_path / f"{strategy}-seed{cfg.seed}"
    for stage_dir in run.iterdir():
        manifest = json.loads((stage_dir / "manifest.json").read_text(),
                              parse_constant=_refuse_non_finite)
        assert manifest["config"] == cfg.to_dict()
        assert set(os.listdir(stage_dir)) == STAGE_FILES[manifest["stage"]] | {"manifest.json"}
    assert not list(tmp_path.rglob("run_manifest.json"))
    if strategy.startswith("diffusion"):
        _, meta = load_checkpoint(run / "diffusion-model" / "model.ckpt")
        assert meta["config"] == cfg.to_dict()
