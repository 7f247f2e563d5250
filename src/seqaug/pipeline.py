"""Stage functions behind the CLI: each one reads the previous stage's
artifacts from disk, does its work, and writes its own directory. ``_stage``
makes the directory and writes its one ``manifest.json`` (the stage name,
the full RunConfig and the stage's own facts) beside:

  synth            interactions.tsv
  preprocess       sequences.tsv, vocab.tsv
  train-diffusion  model.ckpt (meta: net_config, num_items, config, condition), losses.json
  train-srs        model.ckpt (meta: srs_config, role), history.json
  augment          sequences.tsv, vocab.tsv when the input has one
  evaluate         report.json
"""

import contextlib
import json
import os
from dataclasses import asdict

from . import augment as aug_mod
from . import diffusion, srs, synth
from . import numerics as nd
from .dataset import (leave_one_out_split, load_interactions, load_sequences, load_vocab,
                      save_json, save_sequences, save_vocab)
from .evaluation import average_reports, compare, evaluate
from .numerics import seed_stream
from .srs import SrsConfig, SrsModel
from .sunet import SUNet, SUNetConfig


@contextlib.contextmanager
def _stage(name, config, out_dir, **facts):
    """Run a stage's body at the config's precision inside ``out_dir``, and yield
    ``facts`` for the body to add to. ``manifest.json`` (``stage``, the full
    ``config`` and the facts) is written only if the body returns normally."""
    os.makedirs(out_dir, exist_ok=True)
    with nd.precision(config.precision):
        yield facts
    save_json(os.path.join(out_dir, "manifest.json"),
              {"stage": name, "config": config.to_dict(), **facts})


def run_synth(config, out_dir):
    with _stage("synth", config, out_dir) as facts:
        rows = synth.generate_interactions(num_users=config.synth_users,
                                           num_items=config.synth_items, seed=config.seed)
        path = os.path.join(out_dir, "interactions.tsv")
        synth.write_interactions(path, rows)
        facts["rows"] = len(rows)
    return path


def run_preprocess(config, input_path, out_dir):
    """The manifest embeds the input directory's manifest, when there is one, as
    ``input_manifest``: ``seqaug synth`` preprocesses into its own directory."""
    with _stage("preprocess", config, out_dir, input=os.path.abspath(input_path)) as facts:
        ds = load_interactions(input_path, min_len=config.min_len)
        facts.update(num_users=ds.num_users, num_items=ds.num_items, avg_length=ds.avg_length())
        input_manifest = os.path.join(os.path.dirname(os.path.abspath(input_path)), "manifest.json")
        if os.path.exists(input_manifest):
            with open(input_manifest, encoding="utf-8") as f:
                facts["input_manifest"] = json.load(f)
        save_sequences(ds, os.path.join(out_dir, "sequences.tsv"))
        save_vocab(ds, os.path.join(out_dir, "vocab.tsv"))
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
    with _stage("train-diffusion", config, out_dir, data=os.path.abspath(data_dir)) as facts:
        ds = load_dataset_dir(data_dir)
        model, losses = aug_mod.train_augmentor(ds, config, log=log)
        meta = {"net_config": asdict(model.config), "num_items": ds.num_items,
                "config": config.to_dict(), "condition": diffusion.CONDITION}
        model.save(os.path.join(out_dir, "model.ckpt"), meta=meta)
        save_json(os.path.join(out_dir, "losses.json"), losses)
        facts["final_loss"] = losses[-1]
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
    if stage == "train-diffusion" and meta.get("condition") != diffusion.CONDITION:
        raise ValueError(f"{model_dir} holds a train-diffusion checkpoint conditioned on "
                         f"{meta.get('condition', 'the sequence mean alone')}, not on "
                         f"{diffusion.CONDITION}; retrain it")
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
    with _stage("train-srs", config, out_dir, role=role, data=os.path.abspath(data_dir)):
        ds = load_dataset_dir(data_dir)
        split = leave_one_out_split(ds)
        model = SrsModel(config.srs_config(ds.num_items), seed_stream(config.seed, "srs-init", role))
        if role == "reverse":
            history = srs.train_reverse(model, split, config)
        else:
            history = srs.train(model, split, config)
        meta = {"srs_config": asdict(model.config), "role": role}
        model.save(os.path.join(out_dir, "model.ckpt"), meta=meta)
        save_json(os.path.join(out_dir, "history.json"), history)
    return model, history


def _load_recommender(model_dir, needed_by, reverse):
    """The train-srs checkpoint in ``model_dir`` as a model for ``needed_by``;
    refuses one trained in the other direction (role 'reverse' vs 'backbone' /
    'classifier')."""
    arrays, meta = _load_checkpoint(model_dir, "train-srs")
    if (meta["role"] == "reverse") != reverse:
        need = "'reverse'" if reverse else "'backbone' or 'classifier'"
        raise ValueError(f"recommender in {model_dir} has role={meta['role']!r}, "
                         f"but {needed_by} needs role {need}")
    model = SrsModel(SrsConfig(**meta["srs_config"]), seed_stream(0, "srs-load"))
    model.load_state_arrays(arrays)
    return model


# the settings sampling must share with training, the SU-Net's shape included; gamma may differ
_TRAINED_WITH = ("M", "schedule_family", "T", "beta_start", "beta_end",
                 "embed_dim", "levels", "base_width", "res_blocks")


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
    with _stage("augment", config, out_dir, data=os.path.abspath(data_dir)) as facts:
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
        # every data item id indexes the model's item table (row 0 is padding)
        for model_dir, m in zip((diffusion_dir, classifier_dir, reverse_dir),
                                (model, classifier, reverse_model)):
            if m is not None and m.item_emb.shape[0] - 1 != ds.num_items:
                raise ValueError(f"{model_dir} holds a model of {m.item_emb.shape[0] - 1} items, "
                                 f"but the data in {data_dir} has {ds.num_items} items")
        # the classifier scores the M sampled positions as one row
        if classifier is not None and classifier.config.max_len < config.M:
            raise ValueError(f"recommender in {classifier_dir} has max_len={classifier.config.max_len}, "
                             f"but --classifier must score rows of M={config.M} items")
        if classifier is not None and classifier.config.embed_dim != model.config.embed_dim:
            raise ValueError(f"recommender in {classifier_dir} has embed_dim={classifier.config.embed_dim}, "
                             f"but --classifier must score the diffusion model's embed_dim="
                             f"{model.config.embed_dim} states")
        augmented = aug_mod.augment_dataset(ds, config, model=model, reverse_model=reverse_model,
                                            classifier=classifier)
        aug_mod.emit(augmented, out_dir, item_vocab=ds.item_vocab or None)
        facts["zero_rows"] = augmented.zero_rows
    return augmented


def run_evaluate(config, model_dir, data_dir, raw_data_dir, out_dir, target="test"):
    """Evaluate a trained recommender. ``data_dir`` is what it was trained on
    (supplies input sequences); ``raw_data_dir`` supplies real histories for
    negatives and user groups."""
    with _stage("evaluate", config, out_dir, model=os.path.abspath(model_dir),
                data=os.path.abspath(data_dir)):
        model = _load_recommender(model_dir, "evaluate", reverse=False)
        train_ds = load_dataset_dir(data_dir)
        raw_ds = load_dataset_dir(raw_data_dir)
        for name, path, ds in (("data", data_dir, train_ds), ("raw data", raw_data_dir, raw_ds)):
            if model.config.num_items < ds.num_items:
                raise ValueError(f"recommender in {model_dir} has num_items={model.config.num_items}, "
                                 f"but the {name} in {path} has num_items={ds.num_items}")
        missing = len(train_ds.users.keys() - raw_ds.users.keys())
        if missing:
            raise ValueError(f"the raw data in {raw_data_dir} lacks {missing} of the "
                             f"{len(train_ds.users)} users in {data_dir}")
        split = leave_one_out_split(train_ds)
        report = evaluate(model, split, raw_ds, negatives=config.eval_negatives,
                          seed=config.seed, k=config.eval_k, target=target)
        save_json(os.path.join(out_dir, "report.json"), report.to_dict())
    return report


def run_pipeline_once(cfg, raw_dir, work_dir):
    """preprocess-output -> (train-diffusion) -> augment -> train-srs -> evaluate.

    Returns the EvalReport. ``raw_dir`` must already contain the canonical
    sequence files (from run_preprocess)."""
    work = os.path.join(work_dir, f"{cfg.strategy}-seed{cfg.seed}")

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
    seeds = seeds or [config.seed]
    if m_values:
        settings = [(f"M={m}", replace(config, M=m).validate()) for m in m_values]
    elif gamma_values:
        settings = [(f"gamma={g}", replace(config, gamma=g).validate()) for g in gamma_values]
    else:
        settings = [(config.strategy, config)]
    os.makedirs(out_dir, exist_ok=True)
    reports = {}
    for name, cfg in settings:
        per_seed = [run_pipeline_once(replace(cfg, seed=s), raw_dir,
                                      os.path.join(out_dir, name.replace("=", "-")))
                    for s in seeds]
        reports[name] = average_reports(per_seed)
        save_json(os.path.join(out_dir, f"report-{name.replace('=', '-')}.json"),
                  reports[name].to_dict())
    text, csv_text = compare(reports, k=config.eval_k)
    with open(os.path.join(out_dir, "comparison.txt"), "w", encoding="utf-8") as f:
        f.write(text + "\n")
    with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8") as f:
        f.write(csv_text)
    return reports, text
