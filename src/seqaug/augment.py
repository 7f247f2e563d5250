"""End-to-end augmentation: build the training pairs, fit the diffusion
augmentor, generate M pre-order items per user with the chosen strategy,
and emit a dataset that loads back through the normal ingestion path.

Strategies (``config.STRATEGIES``): the two guided-diffusion variants
``diffusion_cf`` (classifier-free) and ``diffusion_cg`` (classifier
guidance), uniform-random items (``random``), random picks from the user's
own sequence (``random_seq``), the reverse-trained autoregressive generator
(``reverse_gen``), or ``none``. Every function here reads the RunConfig.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import diffusion, srs
from .dataset import (InteractionDataset, build_diffusion_training_set, group_of,
                      save_sequences, save_vocab)
from .numerics import seed_stream
from .sunet import SUNet
from .training import epoch_losses


@dataclass
class AugmentedDataset:
    entries: dict                 # user -> (aug_items, raw_items)
    num_items: int
    zero_rows: int                # zero-norm sampled rows, rounded by dot product

    def to_interactions(self, item_vocab=None):
        users = {u: list(aug) + list(raw) for u, (aug, raw) in self.entries.items()}
        return InteractionDataset(users=users, num_items=self.num_items,
                                  item_vocab=item_vocab or {})


def train_augmentor(ds, config, log=None):
    """Fit the noise predictor on (first-M, remainder) pairs from every
    sequence longer than M. Returns (model, per-epoch mean loss)."""
    pairs = build_diffusion_training_set(ds, config.M, exclude_test=config.exclude_test)
    sched = config.schedule()
    model = SUNet(config.sunet_config(), ds.num_items, seed_stream(config.seed, "sunet-init"))
    draw_rng = seed_stream(config.seed, "diff-draws")
    p_uncond = config.p_uncond if config.strategy == "diffusion_cf" else 0.0

    def batch_loss(indices):
        batch = [pairs[i] for i in indices]
        return diffusion.training_loss(model, np.array([b[1] for b in batch], dtype=np.int64),
                                       [b[2] for b in batch], sched, draw_rng, p_uncond=p_uncond)

    losses = []
    for loss in epoch_losses("train-diffusion", model, config.diff_lr, len(pairs),
                             config.diff_batch_size, config.diff_epochs,
                             seed_stream(config.seed, "diff-shuffle"), batch_loss):
        losses.append(loss)
        if log:
            log(f"epoch {len(losses)}/{config.diff_epochs}: loss {loss:.5f}")
    return model, losses


def _conditioning_sequence(seq, exclude_test):
    s = seq[:-1] if exclude_test and len(seq) > 1 else list(seq)
    return s


def augment_dataset(ds, config, model=None, reverse_model=None, classifier=None):
    """Produce M pre-order items for every user (or only the short group
    when ``short_only``); other users keep an empty prefix. Users keep the
    order of ``ds``."""
    entries = {u: ([], list(seq)) for u, seq in ds.users.items()}
    targets = [u for u in ds.users
               if not config.short_only or group_of(len(ds.users[u])) == "short"]
    zero_rows = 0
    if config.strategy in ("random", "random_seq"):
        for u in targets:
            rng = seed_stream(config.seed, "aug-" + config.strategy, int(u))
            if config.strategy == "random":
                aug = [int(v) for v in rng.integers(1, ds.num_items + 1, size=config.M)]
            else:
                support = _conditioning_sequence(ds.users[u], config.exclude_test)
                aug = [int(support[i]) for i in rng.integers(0, len(support), size=config.M)]
            entries[u] = (aug, list(ds.users[u]))
    elif config.strategy == "reverse_gen":
        if reverse_model is None:
            raise ValueError("reverse_gen needs a trained reverse model")
        for u in targets:
            cond = _conditioning_sequence(ds.users[u], config.exclude_test)
            aug = srs.generate_preorder(reverse_model, cond, config.M)
            entries[u] = (aug, list(ds.users[u]))
    elif config.strategy != "none":
        if model is None:
            raise ValueError(f"{config.strategy} needs a trained diffusion model")
        if config.strategy == "diffusion_cg" and classifier is None:
            raise ValueError("diffusion_cg needs a pretrained classifier model")
        sched = config.schedule()
        for start in range(0, len(targets), config.sample_batch):
            chunk = targets[start:start + config.sample_batch]
            raws = [_conditioning_sequence(ds.users[u], config.exclude_test) for u in chunk]
            x0_hat = diffusion.sample(model, raws, config.M, config.gamma, sched, seed=config.seed,
                                      user_keys=chunk, classifier=classifier)
            if not np.isfinite(x0_hat).all():
                raise FloatingPointError(f"augment: {config.strategy} sampled a non-finite value "
                                         f"in the chunk starting at user {chunk[0]}")
            ids, zeros = diffusion.round_to_items(x0_hat, model.item_emb.data)
            zero_rows += zeros
            for u, row in zip(chunk, ids):
                entries[u] = ([int(v) for v in row], list(ds.users[u]))
    return AugmentedDataset(entries=entries, num_items=ds.num_items, zero_rows=zero_rows)


def emit(aug, out_dir, item_vocab=None):
    """Write the canonical sequence file and the vocabulary sidecar when a
    raw-id mapping is known; the stage's manifest is ``run_augment``'s."""
    os.makedirs(out_dir, exist_ok=True)
    ds = aug.to_interactions(item_vocab=item_vocab)
    seq_path = os.path.join(out_dir, "sequences.tsv")
    try:
        save_sequences(ds, seq_path)
        if item_vocab:
            save_vocab(ds, os.path.join(out_dir, "vocab.tsv"))
    except OSError as exc:
        raise OSError(f"failed to write augmented dataset under {out_dir}: {exc}") from exc
    return seq_path
