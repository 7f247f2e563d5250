"""Stage-level contracts of ``pipeline``: each stage computes at its
configured precision without changing the caller's, augmentation and
evaluation refuse a checkpoint trained with other settings, for another
role, catalogue or stage, from an older version or with a corrupt manifest,
and every stage directory holds one manifest."""

import json
import os
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from seqaug import numerics as nd
from seqaug import pipeline
from seqaug.cli import main
from seqaug.config import STRATEGIES, ConfigError, load_config
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
        # a valid diffusion_cg config gives the classifier the SU-Net's width
        trained = replace(cfg, strategy=strategy, srs_embed_dim=cfg.embed_dim).validate()
        pipeline.run_train_diffusion(trained, raw, models[strategy])
    for role in ("backbone", "reverse"):
        models[role] = os.path.join(root, role)
        pipeline.run_train_srs(cfg, raw, models[role], role=role)
    return cfg, raw, models


@pytest.mark.parametrize("axis, values, problem", [
    ("m_values", [2, 0], "M must be >= 1, got 0"),
    ("m_values", [-2], "M must be >= 1, got -2"),
    ("gamma_values", [1.0, -3.0], "gamma must be finite and >= 0, got -3.0"),
])
def test_sweep_validates_every_setting_before_any_stage_runs(tmp_path, axis, values, problem):
    out = tmp_path / "sweep"
    with pytest.raises(ConfigError) as exc:
        pipeline.run_sweep(load_config(None, SIZES), str(tmp_path / "raw"), str(out),
                           **{axis: values})
    assert exc.value.problems == [problem]
    assert not out.exists()


def test_float32_stage_leaves_the_callers_precision(stages, tmp_path):
    cfg, raw, _ = stages
    assert nd.default_dtype() is np.float64
    model, _ = pipeline.run_train_srs(cfg, raw, str(tmp_path / "srs"))
    assert model.item_emb.dtype == np.float32
    assert nd.default_dtype() is np.float64


def test_stage_writes_its_manifest_only_after_its_body_returns(tmp_path):
    cfg = load_config(None, SIZES)
    out = tmp_path / "done"
    with pipeline._stage("evaluate", cfg, str(out), data="d") as facts:
        assert nd.default_dtype() is np.float32
        assert os.listdir(out) == []
        facts["users"] = 3
    assert nd.default_dtype() is np.float64
    assert json.loads((out / "manifest.json").read_text()) == {
        "stage": "evaluate", "config": cfg.to_dict(), "data": "d", "users": 3}
    with pytest.raises(RuntimeError, match="body failed"):
        with pipeline._stage("evaluate", cfg, str(tmp_path / "failed")):
            raise RuntimeError("body failed")
    assert os.listdir(tmp_path / "failed") == []


def test_augment_samples_from_a_matching_checkpoint(stages, tmp_path):
    cfg, raw, models = stages
    out = tmp_path / "aug"
    pipeline.run_augment(replace(cfg, gamma=cfg.gamma + 1.0), raw, str(out),
                         diffusion_dir=models["diffusion_cf"])
    assert (out / "sequences.tsv").exists()


@pytest.mark.parametrize("field, value", [("M", 3), ("schedule_family", "cosine"), ("T", 5),
                                          ("beta_start", 0.01), ("beta_end", 0.2),
                                          ("embed_dim", 4), ("levels", 1), ("base_width", 8),
                                          ("res_blocks", 2)])
def test_augment_refuses_a_checkpoint_trained_with_other_settings(stages, tmp_path, field, value):
    cfg, raw, models = stages
    with pytest.raises(ValueError) as err:
        pipeline.run_augment(replace(cfg, **{field: value}), raw, str(tmp_path / "aug"),
                             diffusion_dir=models["diffusion_cf"])
    message = str(err.value)
    assert field in message and repr(getattr(cfg, field)) in message and repr(value) in message
    assert os.listdir(tmp_path / "aug") == []


def test_diffusion_cf_sampling_refuses_a_model_without_an_unconditional_branch(stages, tmp_path):
    cfg, raw, models = stages
    with pytest.raises(ValueError, match="strategy='diffusion_cg'.*strategy='diffusion_cf'"):
        pipeline.run_augment(cfg, raw, str(tmp_path / "aug"),
                             diffusion_dir=models["diffusion_cg"])


def test_diffusion_checkpoint_reloads_the_trained_net_config(stages, tmp_path):
    cfg, raw, _ = stages
    model, _ = pipeline.run_train_diffusion(cfg, raw, str(tmp_path / "diff"))
    assert pipeline.load_diffusion_model(str(tmp_path / "diff"))[0].config == model.config


@pytest.mark.parametrize("name, stage", [("diffusion_cf", "train-diffusion"), ("backbone", "train-srs")])
def test_a_loaded_model_draws_nothing_and_holds_the_checkpoints_arrays(stages, monkeypatch, name, stage):
    """``load_state_arrays`` overwrites every array, so loading builds the model
    without a random stream."""
    _, _, models = stages

    def no_stream(*keys):
        raise AssertionError(f"seed_stream{keys} called during a load")

    monkeypatch.setattr(pipeline, "seed_stream", no_stream)
    model, _ = pipeline._load_model(models[name], stage)
    arrays, _ = load_checkpoint(os.path.join(models[name], "model.ckpt"))
    loaded = model.state_arrays()
    assert loaded.keys() == arrays.keys()
    for key, array in arrays.items():
        np.testing.assert_array_equal(loaded[key], array, err_msg=key)


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


def test_classifier_guidance_refuses_a_classifier_narrower_than_M(stages, tmp_path):
    cfg, raw, models = stages
    narrow = str(tmp_path / "narrow")
    pipeline.run_train_srs(replace(cfg, srs_embed_dim=16, srs_max_len=1), raw, narrow, role="classifier")
    guided = replace(cfg, strategy="diffusion_cg", srs_embed_dim=16).validate()
    with pytest.raises(ValueError, match=f"{re.escape(narrow)} was trained with srs_max_len=1, "
                                         "but the config has M=2"):
        pipeline.run_augment(guided, raw, str(tmp_path / "aug"), diffusion_dir=models["diffusion_cg"],
                             classifier_dir=narrow)
    assert os.listdir(tmp_path / "aug") == []


def test_classifier_guidance_refuses_a_classifier_of_another_width(stages, tmp_path):
    cfg, raw, models = stages
    guided = replace(cfg, strategy="diffusion_cg", srs_embed_dim=16).validate()
    with pytest.raises(ValueError, match=f"{re.escape(models['backbone'])} was trained with srs_embed_dim=8, "
                                         "but the config has srs_embed_dim=16"):
        pipeline.run_augment(guided, raw, str(tmp_path / "aug"), diffusion_dir=models["diffusion_cg"],
                             classifier_dir=models["backbone"])
    assert os.listdir(tmp_path / "aug") == []


def test_evaluate_refuses_a_reverse_model(stages, tmp_path):
    cfg, raw, models = stages
    with pytest.raises(ValueError, match=f"{re.escape(models['reverse'])} has role='reverse', "
                                         "but evaluate needs role 'backbone' or 'classifier'"):
        pipeline.run_evaluate(cfg, models["reverse"], raw, raw, str(tmp_path / "report"))
    assert os.listdir(tmp_path / "report") == []


def test_evaluate_refuses_a_model_with_a_smaller_catalogue(stages, tmp_path):
    cfg, raw, models = stages
    small = replace(cfg, synth_items=8)
    small_raw = str(tmp_path / "small")
    pipeline.run_preprocess(small, pipeline.run_synth(small, small_raw), small_raw)
    pipeline.run_train_srs(small, small_raw, str(tmp_path / "small-model"))
    with pytest.raises(ValueError, match=f"{re.escape(str(tmp_path / 'small-model'))} was trained with "
                                         f"num_items=8, but the data in {re.escape(raw)} has num_items=12"):
        pipeline.run_evaluate(cfg, str(tmp_path / "small-model"), small_raw, raw,
                              str(tmp_path / "report"))
    # the data it is scored on, not only the raw histories, must fit its item table
    with pytest.raises(ValueError, match=f"{re.escape(str(tmp_path / 'small-model'))} was trained with "
                                         f"num_items=8, but the data in {re.escape(raw)} has num_items=12"):
        pipeline.run_evaluate(cfg, str(tmp_path / "small-model"), raw, small_raw,
                              str(tmp_path / "report"))
    assert os.listdir(tmp_path / "report") == []


def test_evaluate_refuses_raw_data_without_a_trained_user(stages, tmp_path, capsys):
    cfg, raw, models = stages
    few = replace(cfg, synth_users=20)
    few_raw = str(tmp_path / "few")
    pipeline.run_preprocess(few, pipeline.run_synth(few, few_raw), few_raw)
    sizes = [arg for key, value in SIZES.items() for arg in ("--set", f"{key}={value}")]
    code = main(["evaluate", *sizes, "--model", models["backbone"], "--data", raw,
                 "--raw-data", few_raw, "--out", str(tmp_path / "report")])
    assert (code, capsys.readouterr().err) == (
        1, f"error: the raw data in {few_raw} lacks 10 of the 30 users in {raw}\n")


@pytest.mark.parametrize("case", ["srs-as-model", "diffusion-as-classifier",
                                  "diffusion-as-evaluated", "diffusion-without-config",
                                  "diffusion-without-condition"])
def test_cli_refuses_a_checkpoint_of_another_kind(stages, tmp_path, capsys, case):
    _, raw, models = stages
    old, mean_only = tmp_path / "old", tmp_path / "mean-only"
    old.mkdir()
    mean_only.mkdir()
    arrays, meta = load_checkpoint(os.path.join(models["diffusion_cf"], "model.ckpt"))
    # an older version conditioned on the sequence mean alone and recorded no condition form
    del meta["condition"]
    save_checkpoint(mean_only / "model.ckpt", arrays, meta=meta)
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
                                     "a checkpoint from an older version; retrain it"),
        "diffusion-without-condition": (["augment", "--model", str(mean_only)], str(mean_only),
                                        "a train-diffusion checkpoint conditioned on the sequence "
                                        "mean alone, not on mean+lead; retrain it"),
    }[case]
    sizes = [arg for key, value in SIZES.items() for arg in ("--set", f"{key}={value}")]
    code = main([args[0], *sizes, *args[1:], "--data", raw, "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (1, f"error: {model_dir} holds {holds}\n")


@pytest.mark.parametrize("strategy, flag, trained", [("diffusion_cf", "--model", "diffusion_cf"),
                                                     ("reverse_gen", "--reverse-model", "reverse"),
                                                     ("none", "--model", "backbone")])
def test_cli_refuses_a_model_built_for_another_catalogue(stages, tmp_path, capsys, strategy, flag,
                                                        trained):
    """Augment with a diffusion or reverse model, and evaluate a backbone, on data
    with more items than the model was built for."""
    cfg, raw, models = stages
    wide = replace(cfg, synth_items=30)
    wide_raw = str(tmp_path / "wide")
    pipeline.run_preprocess(wide, pipeline.run_synth(wide, wide_raw), wide_raw)
    num_items = (pipeline.load_dataset_dir(raw).num_items, pipeline.load_dataset_dir(wide_raw).num_items)
    assert num_items[0] < num_items[1]
    command = ["evaluate", "--raw-data", raw] if trained == "backbone" else ["augment"]
    refusal = (f"{models[trained]} was trained with num_items={num_items[0]}, "
               f"but the data in {wide_raw} has num_items={num_items[1]}")
    sizes = [arg for key, value in SIZES.items() for arg in ("--set", f"{key}={value}")]
    code = main([*command, *sizes, "--set", f"strategy={strategy}", flag, models[trained],
                 "--data", wide_raw, "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (1, f"error: {refusal}\n")
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("strategy, given, needed", [
    ("diffusion_cf", (), "--model (train-diffusion output)"),
    ("diffusion_cg", ("--model", "diffusion_cg"), "--classifier (train-srs output)"),
    ("reverse_gen", (), "--reverse-model (train-srs --role reverse output)"),
], ids=["diffusion_cf", "diffusion_cg", "reverse_gen"])
def test_cli_augment_refuses_a_missing_model_flag(stages, tmp_path, capsys, strategy, given, needed):
    """Each strategy that reads a model names the flag that is missing, in one
    line, before it samples anything or writes a manifest."""
    _, raw, models = stages
    flags = [models.get(arg, arg) for arg in given]
    sizes = [arg for key, value in SIZES.items() for arg in ("--set", f"{key}={value}")]
    # srs_embed_dim 16 = embed_dim, as a valid diffusion_cg config needs
    code = main(["augment", *sizes, "--set", f"strategy={strategy}", "--set", "srs_embed_dim=16",
                 *flags, "--data", raw, "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (1, f"error: strategy {strategy} needs {needed}\n")
    assert os.listdir(tmp_path / "out") == []


def test_cli_refuses_a_classifier_of_another_width(stages, tmp_path, capsys):
    """A classifier trained at srs_embed_dim 8, beside a diffusion model trained at
    embed_dim 16: the refusal names the classifier's directory and both widths."""
    _, raw, models = stages
    sizes = [arg for key, value in SIZES.items() for arg in ("--set", f"{key}={value}")]
    code = main(["augment", *sizes, "--set", "strategy=diffusion_cg", "--set", "srs_embed_dim=16",
                 "--set", "gamma=1", "--model", models["diffusion_cg"], "--classifier", models["backbone"],
                 "--data", raw, "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (
        1, f"error: {models['backbone']} was trained with srs_embed_dim=8, but the config has "
           "srs_embed_dim=16\n")


@pytest.mark.parametrize("case", ["diffusion-meta", "recommender-meta", "unknown-config-field",
                                  "diffusion-conv-names"])
def test_cli_refuses_a_checkpoint_from_an_older_version(stages, tmp_path, capsys, case):
    """The metas written before checkpoints carried their stage and RunConfig, a
    config with a field RunConfig does not have, and an SU-Net whose resampling
    convolutions still sit one module deeper (``upsamples.0.conv.w``) get the retrain
    line."""
    cfg, raw, models = stages
    arrays, meta = load_checkpoint(os.path.join(models["backbone" if case == "recommender-meta"
                                                        else "diffusion_cf"], "model.ckpt"))
    command = ["augment", "--model"]
    if case == "diffusion-meta":
        meta = {"net_config": asdict(cfg.sunet_config()), "num_items": meta["num_items"],
                "config": meta["config"], "condition": meta["condition"]}
    elif case == "recommender-meta":
        meta = {"srs_config": {"num_items": meta["num_items"], "embed_dim": cfg.srs_embed_dim,
                               "blocks": cfg.srs_blocks, "max_len": cfg.srs_max_len,
                               "dropout": cfg.srs_dropout}, "role": meta["role"]}
        command = ["evaluate", "--raw-data", raw, "--model"]
    elif case == "diffusion-conv-names":
        arrays = {re.sub(r"^(down|up)samples\.(\d+)\.", r"\1samples.\2.conv.", name): value
                  for name, value in arrays.items()}
        assert sum(".conv." in name for name in arrays) == 4
    else:
        meta["config"]["no_such_knob"] = 1
    old = tmp_path / "old"
    old.mkdir()
    save_checkpoint(old / "model.ckpt", arrays, meta=meta)
    sizes = [arg for key, value in SIZES.items() for arg in ("--set", f"{key}={value}")]
    code = main([command[0], *sizes, *command[1:], str(old), "--data", raw, "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (
        1, f"error: {old} holds a checkpoint from an older version; retrain it\n")


@pytest.mark.parametrize("field, value, refused", [
    ("srs_max_len", "8", True), ("srs_dropout", "0.6", True), ("gamma", "x", True),
    ("srs_blocks", True, True), ("num_items", 12.0, True),
    ("gamma", 1, False)])  # dataclasses.replace(cfg, gamma=1) leaves an int in a float field
def test_cli_checks_the_type_of_each_checkpoint_config_value(stages, tmp_path, capsys, field, value,
                                                            refused):
    """A hand-edited backbone meta: evaluate refuses a value of the wrong type with
    one line, not a traceback from the model builder or a silent load."""
    edited, code = _evaluate_an_edited_backbone(stages, tmp_path, field, value)
    assert (code, capsys.readouterr().err) == ((
        1, f"error: {edited} holds a checkpoint whose config has {field}={value!r}; retrain it\n")
        if refused else (0, ""))


@pytest.mark.parametrize("field, value, problem", [
    ("srs_embed_dim", 0, "srs_embed_dim must be >= 1, got 0"),
    ("srs_max_len", -3, "srs_max_len must be >= 1, got -3"),
    ("srs_dropout", 1.5, "srs_dropout must be in [0, 1), got 1.5")],
    ids=["srs_embed_dim", "srs_max_len", "srs_dropout"])
def test_cli_validates_each_checkpoint_config(stages, tmp_path, capsys, field, value, problem):
    """A hand-edited backbone meta with values of the right type that RunConfig
    refuses: one line naming the directory and the field, not a traceback from
    the model builder or a silent load."""
    edited, code = _evaluate_an_edited_backbone(stages, tmp_path, field, value)
    assert (code, capsys.readouterr().err) == (
        1, f"error: {edited} holds a checkpoint whose config is invalid ({problem}); retrain it\n")


def _evaluate_an_edited_backbone(stages, tmp_path, field, value):
    """Run ``seqaug evaluate`` on a copy of the backbone whose meta has ``field``
    set to ``value``; returns the copy's directory and the exit code."""
    _, raw, models = stages
    arrays, meta = load_checkpoint(os.path.join(models["backbone"], "model.ckpt"))
    (meta if field == "num_items" else meta["config"])[field] = value
    edited = tmp_path / "edited"
    edited.mkdir()
    save_checkpoint(edited / "model.ckpt", arrays, meta=meta)
    sizes = [arg for key, v in SIZES.items() for arg in ("--set", f"{key}={v}")]
    return edited, main(["evaluate", *sizes, "--model", str(edited), "--data", raw, "--raw-data", raw,
                         "--out", str(tmp_path / "out")])


def _flip_first_nbytes(data):
    at = data.index(b'"nbytes": ') + len(b'"nbytes": ')
    return data[:at] + (b"2" if data[at:at + 1] == b"1" else b"1") + data[at + 1:]


@pytest.mark.parametrize("corrupt, problem", [
    (lambda data: data.replace(b'"arrays"', b'"ar}ays"'), "corrupt manifest (KeyError: 'arrays')"),
    (lambda data: data.replace(b'"meta"', b'"m\xffta"'), "corrupt manifest (UnicodeDecodeError: "),
    (_flip_first_nbytes, "bytes, but shape"),
    (lambda data: data[:-1] + bytes([data[-1] ^ 1]), "fails its checksum"),
    (lambda data: data.replace(b'"crc32"', b'"crc_0"'), "carries no checksum"),
], ids=["key", "non-utf8", "nbytes", "array-byte", "no-checksums"])
def test_cli_refuses_a_corrupt_checkpoint_manifest(stages, tmp_path, capsys, corrupt, problem):
    """A flipped byte that keeps the file's length, in the manifest or in the last
    array's data, and a manifest whose arrays carry no checksum: evaluate exits 1
    with one line naming the file, and no traceback."""
    _, raw, models = stages
    bad = tmp_path / "bad"
    bad.mkdir()
    data = (Path(models["backbone"]) / "model.ckpt").read_bytes()
    (bad / "model.ckpt").write_bytes(corrupt(data))
    assert (bad / "model.ckpt").stat().st_size == len(data)
    sizes = [arg for key, value in SIZES.items() for arg in ("--set", f"{key}={value}")]
    code = main(["evaluate", *sizes, "--model", str(bad), "--data", raw, "--raw-data", raw,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: {bad / 'model.ckpt'}: ") and problem in err


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
        if (stage_dir / "model.ckpt").exists():
            _, meta = load_checkpoint(stage_dir / "model.ckpt")
            extra = {"train-diffusion": "condition", "train-srs": "role"}[manifest["stage"]]
            assert meta.keys() == {"stage", "config", "num_items", extra}
            assert meta["stage"] == manifest["stage"] and meta["config"] == cfg.to_dict()
    assert not list(tmp_path.rglob("run_manifest.json"))
