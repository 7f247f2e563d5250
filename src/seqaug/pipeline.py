"""Stage functions behind the CLI: each one reads the previous stage's
artifacts from disk, does its work, and writes its own directory with a
manifest sufficient to re-run it."""

import json
import os
from dataclasses import asdict

import numpy as np

from . import augment as aug_mod
from . import diffusion, srs, synth
from . import numerics as nd
from .config import save_manifest
from .dataset import (InteractionDataset, leave_one_out_split, load_sequences,
                      load_interactions, load_vocab, save_sequences, save_vocab)
from .evaluation import average_reports, compare, evaluate
from .numerics import seed_stream
from .srs import SrsConfig, SrsModel, SrsTrainConfig
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
    return aug_mod.AugmentConfig(
        M=config.M, strategy=config.strategy, gamma=config.gamma,
        schedule_family=config.schedule_family, T=config.T,
        beta_start=config.beta_start, beta_end=config.beta_end,
        embed_dim=config.embed_dim, base_width=config.base_width, levels=config.levels,
        channel_mult=tuple(2**i for i in range(config.levels)),
        res_blocks=config.res_blocks, epochs=config.diff_epochs,
        batch_size=config.diff_batch_size, lr=config.diff_lr, p_uncond=config.p_uncond,
        seed=config.seed, exclude_test=config.exclude_test, short_only=config.short_only,
        sample_batch=config.sample_batch)


def run_train_diffusion(config, data_dir, out_dir, log=None):
    with nd.precision(config.precision):
        _ensure_dir(out_dir)
        ds = load_dataset_dir(data_dir)
        acfg = _augment_config(config)
        model, losses = aug_mod.train_augmentor(ds, acfg, log=log)
        meta = {"net_config": {"channels": acfg.M, "embed_dim": acfg.embed_dim,
                               "levels": acfg.levels, "channel_mult": list(acfg.channel_mult),
                               "base_width": acfg.base_width, "res_blocks": acfg.res_blocks},
                "num_items": ds.num_items, "augment": aug_mod._manifest(acfg)}
        model.save(os.path.join(out_dir, "model.ckpt"), meta=meta)
        with open(os.path.join(out_dir, "losses.json"), "w", encoding="utf-8") as f:
            json.dump(losses, f)
        save_manifest(os.path.join(out_dir, "manifest.json"), config,
                      extra={"stage": "train-diffusion", "data": os.path.abspath(data_dir),
                             "final_loss": losses[-1]})
        return model, losses


def load_diffusion_model(model_dir):
    from .numerics.checkpoint import load_checkpoint
    arrays, meta = load_checkpoint(os.path.join(model_dir, "model.ckpt"))
    net = meta["net_config"]
    cfg = SUNetConfig(channels=net["channels"], embed_dim=net["embed_dim"], levels=net["levels"],
                      channel_mult=tuple(net["channel_mult"]), base_width=net["base_width"],
                      res_blocks=net["res_blocks"])
    model = SUNet(cfg, meta["num_items"], seed_stream(0, "sunet-load"))
    model.load_state_arrays(arrays)
    return model, meta


def _srs_configs(config, num_items):
    model_cfg = SrsConfig(num_items=num_items, embed_dim=config.srs_embed_dim,
                          blocks=config.srs_blocks, max_len=config.srs_max_len,
                          dropout=config.srs_dropout)
    train_cfg = SrsTrainConfig(epochs=config.srs_epochs, batch_size=config.srs_batch_size,
                               lr=config.srs_lr, seed=config.seed)
    return model_cfg, train_cfg


def run_train_srs(config, data_dir, out_dir, role="backbone"):
    """Train the recommender on a dataset directory.

    role: 'backbone' / 'classifier' train on forward sequences with
    validation tracking; 'reverse' trains the pre-order generator.
    """
    with nd.precision(config.precision):
        _ensure_dir(out_dir)
        ds = load_dataset_dir(data_dir)
        split = leave_one_out_split(ds)
        model_cfg, train_cfg = _srs_configs(config, ds.num_items)
        model = SrsModel(model_cfg, seed_stream(config.seed, "srs-init", role))
        if role == "reverse":
            history = srs.train_reverse(model, split, train_cfg)
        else:
            history = srs.train(model, split, train_cfg)
        meta = {"srs_config": asdict(model_cfg), "role": role}
        model.save(os.path.join(out_dir, "model.ckpt"), meta=meta)
        with open(os.path.join(out_dir, "history.json"), "w", encoding="utf-8") as f:
            json.dump(history, f)
        save_manifest(os.path.join(out_dir, "manifest.json"), config,
                      extra={"stage": "train-srs", "role": role, "data": os.path.abspath(data_dir)})
        return model, history


def load_srs_model(model_dir):
    from .numerics.checkpoint import load_checkpoint
    arrays, meta = load_checkpoint(os.path.join(model_dir, "model.ckpt"))
    cfg = SrsConfig(**meta["srs_config"])
    model = SrsModel(cfg, seed_stream(0, "srs-load"))
    model.load_state_arrays(arrays)
    return model, meta


# (checkpoint meta key, config field): the settings sampling must share with
# training; gamma only steers sampling and is free to differ
_TRAINED_WITH = (("M", "M"), ("schedule", "schedule_family"), ("T", "T"),
                 ("beta_start", "beta_start"), ("beta_end", "beta_end"))


def _check_checkpoint(trained, acfg, model_dir):
    """Refuse a diffusion checkpoint trained with other settings than the
    ones ``acfg`` samples with."""
    for key, field in _TRAINED_WITH:
        if trained[key] != getattr(acfg, field):
            raise ValueError(f"diffusion model in {model_dir} was trained with {field}={trained[key]!r}, "
                             f"but the config has {field}={getattr(acfg, field)!r}")
    if acfg.strategy == "diffusion_cf" and trained["strategy"] != "diffusion_cf":
        raise ValueError(f"diffusion model in {model_dir} was trained with strategy={trained['strategy']!r} "
                         "(no unconditional branch), but the config has strategy='diffusion_cf'")


def run_augment(config, data_dir, out_dir, diffusion_dir=None, classifier_dir=None,
                reverse_dir=None):
    with nd.precision(config.precision):
        _ensure_dir(out_dir)
        ds = load_dataset_dir(data_dir)
        acfg = _augment_config(config)
        model = classifier = reverse_model = None
        if acfg.strategy in ("diffusion_cg", "diffusion_cf"):
            if diffusion_dir is None:
                raise ValueError(f"strategy {acfg.strategy} needs --model (train-diffusion output)")
            model, meta = load_diffusion_model(diffusion_dir)
            _check_checkpoint(meta["augment"], acfg, diffusion_dir)
        if acfg.strategy == "diffusion_cg":
            if classifier_dir is None:
                raise ValueError("strategy diffusion_cg needs --classifier (train-srs output)")
            classifier, _ = load_srs_model(classifier_dir)
        if acfg.strategy == "reverse_gen":
            if reverse_dir is None:
                raise ValueError("strategy reverse_gen needs --reverse-model (train-srs --role reverse output)")
            reverse_model, _ = load_srs_model(reverse_dir)
        augmented = aug_mod.augment_dataset(ds, acfg, model=model, reverse_model=reverse_model,
                                            classifier=classifier)
        aug_mod.emit(augmented, out_dir, item_vocab=ds.item_vocab or None)
        save_manifest(os.path.join(out_dir, "run_manifest.json"), config,
                      extra={"stage": "augment", "data": os.path.abspath(data_dir)})
        return augmented


def run_evaluate(config, model_dir, data_dir, raw_data_dir, out_dir, target="test"):
    """Evaluate a trained recommender. ``data_dir`` is what it was trained on
    (supplies input sequences); ``raw_data_dir`` supplies real histories for
    negatives and user groups."""
    with nd.precision(config.precision):
        _ensure_dir(out_dir)
        model, _ = load_srs_model(model_dir)
        train_ds = load_dataset_dir(data_dir)
        raw_ds = load_dataset_dir(raw_data_dir)
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
