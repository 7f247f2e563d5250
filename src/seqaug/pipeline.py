"""Stage functions behind the CLI: each one reads the previous stage's
artifacts from disk, does its work, and writes its own directory. Every
stage directory holds one ``manifest.json`` from ``config.save_manifest``
(the stage name, the full RunConfig and the stage's own facts) beside:

  synth            interactions.tsv
  preprocess       sequences.tsv, vocab.tsv
  train-diffusion  model.ckpt (meta: net_config, num_items, config), losses.json
  train-srs        model.ckpt (meta: srs_config, role), history.json
  augment          sequences.tsv, vocab.tsv when the input has one
  evaluate         report.json
"""

import json
import os
from dataclasses import asdict

from . import augment as aug_mod
from . import srs, synth
from . import numerics as nd
from .config import save_manifest
from .dataset import (leave_one_out_split, load_interactions, load_sequences, load_vocab,
                      save_sequences, save_vocab)
from .evaluation import average_reports, compare, evaluate
from .numerics import seed_stream
from .srs import SrsConfig, SrsModel
from .sunet import SUNet, SUNetConfig


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def run_synth(config, out_dir):
    _ensure_dir(out_dir)
    rows = synth.generate_interactions(num_users=config.synth_users, num_items=config.synth_items,
                                       seed=config.seed)
    path = os.path.join(out_dir, "interactions.tsv")
    synth.write_interactions(path, rows)
    save_manifest(os.path.join(out_dir, "manifest.json"), config,
                  extra={"stage": "synth", "rows": len(rows)})
    return path


def run_preprocess(config, input_path, out_dir):
    _ensure_dir(out_dir)
    ds = load_interactions(input_path, min_len=config.min_len)
    save_sequences(ds, os.path.join(out_dir, "sequences.tsv"))
    save_vocab(ds, os.path.join(out_dir, "vocab.tsv"))
    save_manifest(os.path.join(out_dir, "manifest.json"), config, extra={
        "stage": "preprocess",
        "input": os.path.abspath(input_path),
        "num_users": ds.num_users,
        "num_items": ds.num_items,
        "avg_length": ds.avg_length(),
    })
    return ds


def load_dataset_dir(data_dir):
    ds = load_sequences(os.path.join(data_dir, "sequences.tsv"))
    vocab_path = os.path.join(data_dir, "vocab.tsv")
    if os.path.exists(vocab_path):
        ds.item_vocab = load_vocab(vocab_path)
        ds.num_items = max(ds.num_items, max(ds.item_vocab.values()))
    return ds


def _augment_config(config):
    # the augment stage reads the RunConfig itself; this identity stays because
    # perfbench/test_bench.py and acceptance 07 call it
    return config


def run_train_diffusion(config, data_dir, out_dir, log=None):
    with nd.precision(config.precision):
        _ensure_dir(out_dir)
        ds = load_dataset_dir(data_dir)
        model, losses = aug_mod.train_augmentor(ds, config, log=log)
        meta = {"net_config": asdict(model.config), "num_items": ds.num_items,
                "config": config.to_dict()}
        model.save(os.path.join(out_dir, "model.ckpt"), meta=meta)
        with open(os.path.join(out_dir, "losses.json"), "w", encoding="utf-8") as f:
            json.dump(losses, f)
        save_manifest(os.path.join(out_dir, "manifest.json"), config,
                      extra={"stage": "train-diffusion", "data": os.path.abspath(data_dir),
                             "final_loss": losses[-1]})
        return model, losses


def _load_checkpoint(model_dir, stage):
    """Arrays and meta of the ``stage`` checkpoint in ``model_dir``; refuses
    one written by the other training stage or by an older version."""
    from .numerics.checkpoint import load_checkpoint
    arrays, meta = load_checkpoint(os.path.join(model_dir, "model.ckpt"))
    holds = ("train-diffusion" if "net_config" in meta else
             "train-srs" if "srs_config" in meta else "unrecognised")
    if holds != stage:
        raise ValueError(f"{model_dir} holds a {holds} checkpoint, but a {stage} one is needed")
    if stage == "train-diffusion" and "config" not in meta:
        raise ValueError(f"{model_dir} holds a train-diffusion checkpoint from an older version "
                         "with no 'config' in its meta; retrain it")
    return arrays, meta


def load_diffusion_model(model_dir):
    arrays, meta = _load_checkpoint(model_dir, "train-diffusion")
    net = meta["net_config"]
    cfg = SUNetConfig(**{**net, "channel_mult": tuple(net["channel_mult"])})
    model = SUNet(cfg, meta["num_items"], seed_stream(0, "sunet-load"))
    model.load_state_arrays(arrays)
    return model, meta


def run_train_srs(config, data_dir, out_dir, role="backbone"):
    """Train the recommender on a dataset directory.

    role: 'backbone' / 'classifier' train on forward sequences with
    validation tracking; 'reverse' trains the pre-order generator.
    """
    with nd.precision(config.precision):
        _ensure_dir(out_dir)
        ds = load_dataset_dir(data_dir)
        split = leave_one_out_split(ds)
        model = SrsModel(config.srs_config(ds.num_items), seed_stream(config.seed, "srs-init", role))
        if role == "reverse":
            history = srs.train_reverse(model, split, config)
        else:
            history = srs.train(model, split, config)
        meta = {"srs_config": asdict(model.config), "role": role}
        model.save(os.path.join(out_dir, "model.ckpt"), meta=meta)
        with open(os.path.join(out_dir, "history.json"), "w", encoding="utf-8") as f:
            json.dump(history, f)
        save_manifest(os.path.join(out_dir, "manifest.json"), config,
                      extra={"stage": "train-srs", "role": role, "data": os.path.abspath(data_dir)})
        return model, history


def load_srs_model(model_dir):
    arrays, meta = _load_checkpoint(model_dir, "train-srs")
    cfg = SrsConfig(**meta["srs_config"])
    model = SrsModel(cfg, seed_stream(0, "srs-load"))
    model.load_state_arrays(arrays)
    return model, meta


def _load_recommender(model_dir, needed_by, reverse):
    """A train-srs checkpoint for ``needed_by``; refuses one trained in the
    other direction (role 'reverse' vs 'backbone' / 'classifier')."""
    model, meta = load_srs_model(model_dir)
    if (meta["role"] == "reverse") != reverse:
        need = "'reverse'" if reverse else "'backbone' or 'classifier'"
        raise ValueError(f"recommender in {model_dir} has role={meta['role']!r}, "
                         f"but {needed_by} needs role {need}")
    return model


# the settings sampling must share with training; gamma only steers sampling
# and is free to differ
_TRAINED_WITH = ("M", "schedule_family", "T", "beta_start", "beta_end")


def _check_checkpoint(trained, config, model_dir):
    """Refuse a diffusion checkpoint trained with other settings than the
    ones ``config`` samples with."""
    for name in _TRAINED_WITH:
        if trained[name] != getattr(config, name):
            raise ValueError(f"diffusion model in {model_dir} was trained with {name}={trained[name]!r}, "
                             f"but the config has {name}={getattr(config, name)!r}")
    if config.strategy == "diffusion_cf" and trained["strategy"] != "diffusion_cf":
        raise ValueError(f"diffusion model in {model_dir} was trained with strategy={trained['strategy']!r} "
                         "(no unconditional branch), but the config has strategy='diffusion_cf'")


def run_augment(config, data_dir, out_dir, diffusion_dir=None, classifier_dir=None,
                reverse_dir=None):
    with nd.precision(config.precision):
        _ensure_dir(out_dir)
        ds = load_dataset_dir(data_dir)
        model = classifier = reverse_model = None
        if config.strategy in ("diffusion_cg", "diffusion_cf"):
            if diffusion_dir is None:
                raise ValueError(f"strategy {config.strategy} needs --model (train-diffusion output)")
            model, meta = load_diffusion_model(diffusion_dir)
            _check_checkpoint(meta["config"], config, diffusion_dir)
        if config.strategy == "diffusion_cg":
            if classifier_dir is None:
                raise ValueError("strategy diffusion_cg needs --classifier (train-srs output)")
            classifier = _load_recommender(classifier_dir, "--classifier", reverse=False)
        if config.strategy == "reverse_gen":
            if reverse_dir is None:
                raise ValueError("strategy reverse_gen needs --reverse-model (train-srs --role reverse output)")
            reverse_model = _load_recommender(reverse_dir, "--reverse-model", reverse=True)
        augmented = aug_mod.augment_dataset(ds, config, model=model, reverse_model=reverse_model,
                                            classifier=classifier)
        aug_mod.emit(augmented, out_dir, item_vocab=ds.item_vocab or None)
        save_manifest(os.path.join(out_dir, "manifest.json"), config,
                      extra={"stage": "augment", "data": os.path.abspath(data_dir),
                             "zero_rows": augmented.zero_rows})
        return augmented


def run_evaluate(config, model_dir, data_dir, raw_data_dir, out_dir, target="test"):
    """Evaluate a trained recommender. ``data_dir`` is what it was trained on
    (supplies input sequences); ``raw_data_dir`` supplies real histories for
    negatives and user groups."""
    with nd.precision(config.precision):
        _ensure_dir(out_dir)
        model = _load_recommender(model_dir, "evaluate", reverse=False)
        train_ds = load_dataset_dir(data_dir)
        raw_ds = load_dataset_dir(raw_data_dir)
        if model.config.num_items < raw_ds.num_items:
            raise ValueError(f"recommender in {model_dir} has num_items={model.config.num_items}, "
                             f"but the raw data in {raw_data_dir} has num_items={raw_ds.num_items}")
        split = leave_one_out_split(train_ds)
        report = evaluate(model, split, raw_ds, negatives=config.eval_negatives,
                          seed=config.seed, k=config.eval_k, target=target)
        report.save_json(os.path.join(out_dir, "report.json"))
        save_manifest(os.path.join(out_dir, "manifest.json"), config,
                      extra={"stage": "evaluate", "model": os.path.abspath(model_dir),
                             "data": os.path.abspath(data_dir)})
        return report


def run_pipeline_once(config, raw_dir, work_dir, strategy=None, seed=None):
    """preprocess-output -> (train-diffusion) -> augment -> train-srs -> evaluate.

    Returns the EvalReport. ``raw_dir`` must already contain the canonical
    sequence files (from run_preprocess)."""
    from dataclasses import replace
    cfg = config
    if strategy is not None or seed is not None:
        cfg = replace(config, **({"strategy": strategy} if strategy is not None else {}),
                      **({"seed": seed} if seed is not None else {}))
    tag = f"{cfg.strategy}-seed{cfg.seed}"
    work = _ensure_dir(os.path.join(work_dir, tag))

    aug_dir = os.path.join(work, "augmented")
    if cfg.strategy in ("none", "random", "random_seq"):
        run_augment(cfg, raw_dir, aug_dir)
    elif cfg.strategy == "reverse_gen":
        rev_dir = os.path.join(work, "reverse-model")
        run_train_srs(cfg, raw_dir, rev_dir, role="reverse")
        run_augment(cfg, raw_dir, aug_dir, reverse_dir=rev_dir)
    else:
        diff_dir = os.path.join(work, "diffusion-model")
        run_train_diffusion(cfg, raw_dir, diff_dir)
        cls_dir = None
        if cfg.strategy == "diffusion_cg":
            cls_dir = os.path.join(work, "classifier")
            run_train_srs(cfg, raw_dir, cls_dir, role="classifier")
        run_augment(cfg, raw_dir, aug_dir, diffusion_dir=diff_dir, classifier_dir=cls_dir)

    srs_dir = os.path.join(work, "srs-model")
    run_train_srs(cfg, aug_dir, srs_dir, role="backbone")
    report_dir = os.path.join(work, "report")
    return run_evaluate(cfg, srs_dir, aug_dir, raw_dir, report_dir)


def run_sweep(config, raw_dir, out_dir, m_values=None, gamma_values=None, seeds=None):
    """Fan out over M or gamma values (times seeds), average reports per
    setting, and write a comparison table."""
    from dataclasses import replace
    _ensure_dir(out_dir)
    seeds = seeds or [config.seed]
    if m_values:
        settings = [(f"M={m}", replace(config, M=m)) for m in m_values]
    elif gamma_values:
        settings = [(f"gamma={g}", replace(config, gamma=g)) for g in gamma_values]
    else:
        settings = [(config.strategy, config)]
    reports = {}
    for name, cfg in settings:
        per_seed = [run_pipeline_once(replace(cfg, seed=s), raw_dir,
                                      os.path.join(out_dir, name.replace("=", "-")))
                    for s in seeds]
        reports[name] = average_reports(per_seed)
        reports[name].save_json(os.path.join(out_dir, f"report-{name.replace('=', '-')}.json"))
    text, csv_text = compare(reports, k=config.eval_k)
    with open(os.path.join(out_dir, "comparison.txt"), "w", encoding="utf-8") as f:
        f.write(text + "\n")
    with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8") as f:
        f.write(csv_text)
    return reports, text
