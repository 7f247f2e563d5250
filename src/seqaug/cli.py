"""Command-line entry points wiring the pipeline stages together.

Every subcommand takes ``--config`` (key=value file) plus ``--set key=value``
overrides; flags win over the file. Output directories are self-describing:
each contains a manifest echoing the effective configuration.
"""

import argparse
import sys

from . import pipeline
from .config import ConfigError, load_config
from .dataset import EmptyDatasetError, EmptyDiffusionSetError, ParseError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--seed", type=int, help="shorthand for --set seed=...")
    p.add_argument("--out", required=True, help="output directory")


def _build_config(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError([f"--set expects KEY=VALUE, got {item!r}"])
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "users", None) is not None:
        overrides["synth_users"] = args.users
    if getattr(args, "items", None) is not None:
        overrides["synth_items"] = args.items
    return load_config(args.config, overrides)


def _listed(kind):
    def parse(text):
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's "invalid <name> value" error
    return parse


def build_parser():
    parser = argparse.ArgumentParser(prog="seqaug",
                                     description="diffusion-based pre-order augmentation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit the synthetic Markov-chain benchmark")
    _add_common(p)
    p.add_argument("--users", type=int, help="shorthand for --set synth_users=...")
    p.add_argument("--items", type=int, help="shorthand for --set synth_items=...")

    p = sub.add_parser("preprocess", help="ingest a raw user/item/timestamp TSV")
    _add_common(p)
    p.add_argument("--input", required=True, help="raw interaction TSV")

    p = sub.add_parser("train-diffusion", help="fit the diffusion augmentor")
    _add_common(p)
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("train-srs", help="fit the recommender")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset directory (raw or augmented)")
    p.add_argument("--role", choices=("backbone", "classifier", "reverse"), default="backbone")

    p = sub.add_parser("augment", help="generate pre-order items and emit the dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--model", help="train-diffusion output (diffusion strategies)")
    p.add_argument("--classifier", help="train-srs output (classifier-guide strategy)")
    p.add_argument("--reverse-model", help="train-srs --role reverse output (reverse_gen)")

    p = sub.add_parser("evaluate", help="HR@K / NDCG@K report for a trained recommender")
    _add_common(p)
    p.add_argument("--model", required=True, help="train-srs output directory")
    p.add_argument("--data", required=True, help="dataset the model was trained on")
    p.add_argument("--raw-data", required=True, help="raw dataset for negatives and groups")
    p.add_argument("--target", choices=("test", "valid"), default="test")

    p = sub.add_parser("sweep", help="fan out full pipeline runs over M or gamma")
    _add_common(p)
    p.add_argument("--data", required=True, help="preprocess output directory")
    axis = p.add_mutually_exclusive_group()
    axis.add_argument("--M", type=_listed(int), help="comma-separated augment counts, e.g. 4,6,8")
    axis.add_argument("--gamma", type=_listed(float), help="comma-separated guidance scales")
    p.add_argument("--seeds", type=_listed(int), help="comma-separated run seeds (default: config seed)")
    return parser


def _run(args):
    config = _build_config(args)
    if args.command == "synth":
        path = pipeline.run_synth(config, args.out)
        print(f"wrote {path}")
        ds = pipeline.run_preprocess(config, path, args.out)
        print(f"preprocessed: {ds.num_users} users, {ds.num_items} items, "
              f"avg length {ds.avg_length():.2f}")
    elif args.command == "preprocess":
        ds = pipeline.run_preprocess(config, args.input, args.out)
        print(f"{ds.num_users} users, {ds.num_items} items, avg length {ds.avg_length():.2f}")
    elif args.command == "train-diffusion":
        log = None if args.quiet else lambda msg: print(msg, flush=True)
        _, losses = pipeline.run_train_diffusion(config, args.data, args.out, log=log)
        print(f"final loss {losses[-1]:.5f}")
    elif args.command == "train-srs":
        _, history = pipeline.run_train_srs(config, args.data, args.out, role=args.role)
        if history.get("valid_hr10"):
            print(f"best valid HR@10 {max(history['valid_hr10']):.4f}")
        else:
            print(f"final loss {history['loss'][-1]:.5f}")
    elif args.command == "augment":
        augmented = pipeline.run_augment(config, args.data, args.out,
                                         diffusion_dir=args.model,
                                         classifier_dir=args.classifier,
                                         reverse_dir=args.reverse_model)
        print(f"augmented {augmented.num_users} users with strategy {config.strategy}")
    elif args.command == "evaluate":
        report = pipeline.run_evaluate(config, args.model, args.data, args.raw_data,
                                       args.out, target=args.target)
        k = config.eval_k
        print(f"HR@{k} {report.overall[f'hr@{k}']:.4f}  NDCG@{k} {report.overall[f'ndcg@{k}']:.4f}")
    elif args.command == "sweep":
        _, text = pipeline.run_sweep(config, args.data, args.out,
                                     m_values=args.M, gamma_values=args.gamma, seeds=args.seeds)
        print(text)
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, EmptyDatasetError, EmptyDiffusionSetError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
