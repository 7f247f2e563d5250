"""Stage functions behind the CLI: each one reads the previous stage's
artifacts from disk, does its work, and writes its own directory. ``_stage``
makes the directory and writes its one ``manifest.json`` (the stage name,
the full RunConfig and the stage's own facts) beside:

  synth            interactions.tsv
  preprocess       sequences.tsv, vocab.tsv
  train-diffusion  model.ckpt (meta: stage, config, num_items, condition), losses.json
  train-srs        model.ckpt (meta: stage, config, num_items, role), history.json
  augment          sequences.tsv, vocab.tsv when the input has one
  evaluate         report.json
"""

import contextlib
import json
import operator
import os

from . import augment as aug_mod
from . import diffusion, srs, synth
from . import numerics as nd
from .config import ConfigError, RunConfig, field_types
from .dataset import (leave_one_out_split, load_interactions, load_sequences, load_vocab,
                      save_json, save_sequences, save_vocab)
from .evaluation import average_reports, compare, evaluate
from .numerics import seed_stream
from .srs import SrsModel
from .sunet import SUNet


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
        meta = {"stage": "train-diffusion", "config": config.to_dict(), "num_items": ds.num_items,
                "condition": diffusion.CONDITION}
        model.save(os.path.join(out_dir, "model.ckpt"), meta=meta)
        save_json(os.path.join(out_dir, "losses.json"), losses)
        facts["final_loss"] = losses[-1]
    return model, losses


def _load_model(model_dir, stage, needed_by=None, reverse=False):
    """``(model, trained)``: the ``stage`` model in ``model_dir``, built from the
    RunConfig in its meta, and that config's fields plus ``num_items``. A
    train-srs model must have role 'reverse' exactly when ``reverse``. Each value
    must have its field's type (an int passes for a float, a bool only for a bool),
    and the config must pass ``RunConfig.validate``."""
    arrays, meta = nd.checkpoint.load_checkpoint(os.path.join(model_dir, "model.ckpt"))
    config, types = meta.get("config"), field_types()
    if not ({"stage", "num_items"} <= meta.keys() and isinstance(config, dict)
            and config.keys() == types.keys()):
        raise ValueError(f"{model_dir} holds a checkpoint from an older version; retrain it")
    if meta["stage"] != stage:
        raise ValueError(f"{model_dir} holds a {meta['stage']} checkpoint, but a {stage} one is needed")
    if stage == "train-diffusion" and meta.get("condition") != diffusion.CONDITION:
        raise ValueError(f"{model_dir} holds a train-diffusion checkpoint conditioned on "
                         f"{meta.get('condition', 'the sequence mean alone')}, not on "
                         f"{diffusion.CONDITION}; retrain it")
    if stage == "train-srs" and (meta.get("role") == "reverse") != reverse:
        need = "'reverse'" if reverse else "'backbone' or 'classifier'"
        raise ValueError(f"recommender in {model_dir} has role={meta.get('role')!r}, "
                         f"but {needed_by} needs role {need}")
    trained = {**config, "num_items": meta["num_items"]}
    for name, kind in {**types, "num_items": int}.items():
        if (isinstance(value := trained[name], bool) != (kind is bool)
                or not isinstance(value, (int, float) if kind is float else kind)):
            raise ValueError(f"{model_dir} holds a checkpoint whose config has {name}={value!r}; retrain it")
    try:
        run = RunConfig(**config).validate()
    except ConfigError as exc:
        raise ValueError(f"{model_dir} holds a checkpoint whose config is invalid "
                         f"({'; '.join(exc.problems)}); retrain it") from exc
    model = (SUNet(run.sunet_config(), meta["num_items"], seed_stream(0, "sunet-load"))
             if stage == "train-diffusion" else
             SrsModel(run, meta["num_items"], seed_stream(0, "srs-load")))
    if arrays.keys() != model.parameters().keys():
        raise ValueError(f"{model_dir} holds a checkpoint from an older version; retrain it")
    model.load_state_arrays(arrays)
    return model, trained


def load_diffusion_model(model_dir):
    return _load_model(model_dir, "train-diffusion")


def run_train_srs(config, data_dir, out_dir, role="backbone"):
    """Train the recommender on a dataset directory.

    role: 'backbone' / 'classifier' train on forward sequences with
    validation tracking; 'reverse' trains the pre-order generator.
    """
    with _stage("train-srs", config, out_dir, role=role, data=os.path.abspath(data_dir)):
        ds = load_dataset_dir(data_dir)
        split = leave_one_out_split(ds)
        model = SrsModel(config, ds.num_items, seed_stream(config.seed, "srs-init", role))
        if role == "reverse":
            history = srs.train_reverse(model, split, config)
        else:
            history = srs.train(model, split, config)
        meta = {"stage": "train-srs", "config": config.to_dict(), "num_items": ds.num_items, "role": role}
        model.save(os.path.join(out_dir, "model.ckpt"), meta=meta)
        save_json(os.path.join(out_dir, "history.json"), history)
    return model, history


# what augment must share with each model it loads: the diffusion model's schedule and
# SU-Net shape (gamma may differ; under diffusion_cf the strategy too, as only such a model
# has an unconditional branch), the classifier's state width, and every model's catalogue
_SAMPLED_WITH = ("M", "schedule_family", "T", "beta_start", "beta_end", "embed_dim", "levels",
                 "base_width", "res_blocks", "num_items")
_SCORED_WITH = ("srs_embed_dim", "num_items")


def _refuse_unshared(model_dir, trained, config, data_dir, ds, equal=(), at_least=()):
    """The one refusal of a loaded model's settings: ``trained`` must hold the
    config's value (for ``num_items``, the data's) of each field in ``equal``,
    and at least that of ``other`` for each ``(field, other)`` in ``at_least``."""
    for name, other, fits in ([(n, n, operator.eq) for n in equal]
                              + [(n, o, operator.ge) for n, o in at_least]):
        value, where = ((ds.num_items, f"the data in {data_dir}") if other == "num_items"
                        else (getattr(config, other), "the config"))
        if not fits(trained[name], value):
            raise ValueError(f"{model_dir} was trained with {name}={trained[name]!r}, "
                             f"but {where} has {other}={value!r}")


def run_augment(config, data_dir, out_dir, diffusion_dir=None, classifier_dir=None,
                reverse_dir=None):
    with _stage("augment", config, out_dir, data=os.path.abspath(data_dir)) as facts:
        ds = load_dataset_dir(data_dir)
        model = classifier = reverse_model = None
        if config.strategy in ("diffusion_cg", "diffusion_cf"):
            if diffusion_dir is None:
                raise ValueError(f"strategy {config.strategy} needs --model (train-diffusion output)")
            model, trained = load_diffusion_model(diffusion_dir)
            _refuse_unshared(diffusion_dir, trained, config, data_dir, ds, _SAMPLED_WITH
                             + (("strategy",) if config.strategy == "diffusion_cf" else ()))
        if config.strategy == "diffusion_cg":
            if classifier_dir is None:
                raise ValueError("strategy diffusion_cg needs --classifier (train-srs output)")
            classifier, trained = _load_model(classifier_dir, "train-srs", "--classifier")
            _refuse_unshared(classifier_dir, trained, config, data_dir, ds, _SCORED_WITH,
                             at_least=[("srs_max_len", "M")])
        if config.strategy == "reverse_gen":
            if reverse_dir is None:
                raise ValueError("strategy reverse_gen needs --reverse-model (train-srs --role reverse output)")
            reverse_model, trained = _load_model(reverse_dir, "train-srs", "--reverse-model", reverse=True)
            _refuse_unshared(reverse_dir, trained, config, data_dir, ds, ("num_items",))
        augmented, facts["zero_rows"] = aug_mod.augment_dataset(
            ds, config, model=model, reverse_model=reverse_model, classifier=classifier)
        aug_mod.emit(augmented, out_dir)
    return augmented


def run_evaluate(config, model_dir, data_dir, raw_data_dir, out_dir, target="test"):
    """Evaluate a trained recommender. ``data_dir`` is what it was trained on
    (supplies input sequences); ``raw_data_dir`` supplies real histories for
    negatives and user groups."""
    with _stage("evaluate", config, out_dir, model=os.path.abspath(model_dir),
                data=os.path.abspath(data_dir)):
        model, trained = _load_model(model_dir, "train-srs", "evaluate")
        train_ds = load_dataset_dir(data_dir)
        raw_ds = load_dataset_dir(raw_data_dir)
        for path, ds in ((data_dir, train_ds), (raw_data_dir, raw_ds)):
            _refuse_unshared(model_dir, trained, config, path, ds, at_least=[("num_items", "num_items")])
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
