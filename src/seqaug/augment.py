"""End-to-end augmentation: build the training pairs, fit the diffusion
augmentor, generate M pre-order items per user with the chosen strategy,
and return the augmented ``InteractionDataset``, which ``emit`` writes in
the form the normal ingestion path loads.

Strategies (``config.STRATEGIES``): the two guided-diffusion variants
``diffusion_cf`` (classifier-free) and ``diffusion_cg`` (classifier
guidance), uniform-random items (``random``), random picks from the user's
own sequence (``random_seq``), the reverse-trained autoregressive generator
(``reverse_gen``), or ``none``. Every function here reads the RunConfig.
"""

import os

import numpy as np

from . import diffusion, srs
from .dataset import (InteractionDataset, build_diffusion_training_set, group_of,
                      save_sequences, save_vocab)
from .numerics import seed_stream
from .sunet import SUNet
from .training import epoch_losses


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
    return seq[:-1] if exclude_test and len(seq) > 1 else list(seq)


def augment_dataset(ds, config, model=None, reverse_model=None, classifier=None):
    """``(dataset, zero_rows)``: an ``InteractionDataset`` holding each user's M
    generated pre-order items followed by their sequence, in the user order of
    ``ds`` and with its ``num_items`` and ``item_vocab``. Under ``short_only``
    only the short group gets a prefix. ``zero_rows`` counts the zero-norm
    sampled rows that were rounded by dot product."""
    targets = [u for u in ds.users
               if not config.short_only or group_of(len(ds.users[u])) == "short"]
    prefixes = {}
    zero_rows = 0
    if config.strategy in ("random", "random_seq"):
        for u in targets:
            rng = seed_stream(config.seed, "aug-" + config.strategy, int(u))
            if config.strategy == "random":
                prefixes[u] = rng.integers(1, ds.num_items + 1, size=config.M).tolist()
            else:
                support = _conditioning_sequence(ds.users[u], config.exclude_test)
                prefixes[u] = [support[i] for i in rng.integers(0, len(support), size=config.M)]
    elif config.strategy == "reverse_gen":
        for u in targets:
            cond = _conditioning_sequence(ds.users[u], config.exclude_test)
            prefixes[u] = srs.generate_preorder(reverse_model, cond, config.M)
    elif config.strategy != "none":
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
            prefixes.update(zip(chunk, ids.tolist()))
    users = {u: [*prefixes.get(u, ()), *seq] for u, seq in ds.users.items()}
    return InteractionDataset(users=users, num_items=ds.num_items, item_vocab=ds.item_vocab), zero_rows


def emit(ds, out_dir):
    """Write ``ds`` as the canonical sequence file, plus the vocabulary sidecar
    when it carries a raw-id mapping; the stage's manifest is ``run_augment``'s."""
    os.makedirs(out_dir, exist_ok=True)
    seq_path = os.path.join(out_dir, "sequences.tsv")
    try:
        save_sequences(ds, seq_path)
        if ds.item_vocab:
            save_vocab(ds, os.path.join(out_dir, "vocab.tsv"))
    except OSError as exc:
        raise OSError(f"failed to write augmented dataset under {out_dir}: {exc}") from exc
    return seq_path
