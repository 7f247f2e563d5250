"""Stage-level contracts of ``pipeline``: each stage computes at its
configured precision without changing the caller's, and augmentation
refuses a diffusion checkpoint trained with other settings."""

import os
from dataclasses import replace

import numpy as np
import pytest

from seqaug import numerics as nd
from seqaug import pipeline
from seqaug.config import load_config

SIZES = {"synth_users": 30, "synth_items": 12, "M": 2, "T": 4, "beta_start": 0.02,
         "beta_end": 0.3, "embed_dim": 16, "base_width": 4, "levels": 2, "res_blocks": 1,
         "diff_epochs": 1, "diff_batch_size": 64, "sample_batch": 64, "srs_embed_dim": 8,
         "srs_blocks": 1, "srs_max_len": 8, "srs_epochs": 1, "precision": "float32"}


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """Raw data plus a classifier-free and a classifier-guided checkpoint."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = load_config(None, SIZES)
    raw = os.path.join(root, "raw")
    pipeline.run_preprocess(cfg, pipeline.run_synth(cfg, raw), raw)
    models = {}
    for strategy in ("diffusion_cf", "diffusion_cg"):
        models[strategy] = os.path.join(root, strategy)
        pipeline.run_train_diffusion(replace(cfg, strategy=strategy), raw, models[strategy])
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


def test_classifier_free_sampling_refuses_a_model_without_an_unconditional_branch(stages, tmp_path):
    cfg, raw, models = stages
    with pytest.raises(ValueError, match="strategy='diffusion_cg'.*strategy='diffusion_cf'"):
        pipeline.run_augment(cfg, raw, str(tmp_path / "aug"),
                             diffusion_dir=models["diffusion_cg"])
