import json
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from seqaug import augment as am
from seqaug import numerics as nd
from seqaug import pipeline, srs, synth
from seqaug.augment import augment_dataset, emit, train_augmentor
from seqaug.config import STRATEGIES, RunConfig
from seqaug.dataset import (EmptyDiffusionSetError, InteractionDataset,
                            build_diffusion_training_set, leave_one_out_split,
                            load_sequences, load_vocab, save_sequences)
from seqaug.numerics import seed_stream
from seqaug.numerics.checkpoint import load_checkpoint
from seqaug.srs import SrsConfig, SrsModel, train_reverse


def small_config(**kw):
    base = dict(M=3, strategy="diffusion_cf", gamma=0.5, schedule_family="linear",
                T=8, beta_start=0.02, beta_end=0.3, embed_dim=16, srs_embed_dim=16,
                base_width=8, levels=2, res_blocks=1, diff_epochs=3, diff_batch_size=16,
                diff_lr=1e-3, seed=3)
    base.update(kw)
    return RunConfig(**base).validate()


@pytest.fixture
def chain_ds():
    rows = synth.generate_interactions(num_users=40, num_items=15, seed=2)
    users = {}
    for u, item, _ in rows:
        users.setdefault(u, []).append(item)
    return InteractionDataset(users={u: s for u, s in users.items() if len(s) >= 3},
                              num_items=15)


def test_config_rejects_bad_strategy():
    with pytest.raises(ValueError, match="strategy"):
        small_config(strategy="surprise_me")


def test_config_rejects_m_zero_for_real_strategy():
    with pytest.raises(ValueError, match="M"):
        small_config(M=0)


def test_augment_manifest_records_the_full_config_and_zero_rows(chain_ds, tmp_path):
    cfg = small_config(strategy="random", srs_epochs=7)
    (tmp_path / "raw").mkdir()
    save_sequences(chain_ds, tmp_path / "raw" / "sequences.tsv")
    pipeline.run_augment(cfg, str(tmp_path / "raw"), str(tmp_path / "aug"))
    manifest = json.loads((tmp_path / "aug" / "manifest.json").read_text())
    assert manifest == {"stage": "augment", "config": cfg.to_dict(),
                        "data": str(tmp_path / "raw"), "zero_rows": 0}
    assert manifest["config"]["srs_epochs"] == 7


def test_train_augmentor_m_too_large_raises(chain_ds):
    with pytest.raises(EmptyDiffusionSetError):
        train_augmentor(chain_ds, small_config(M=400))


def test_train_augmentor_loss_decreases(chain_ds):
    model, losses = train_augmentor(chain_ds, small_config(diff_epochs=5))
    assert len(losses) == 5
    assert losses[-1] < losses[0]


def test_train_augmentor_stops_at_the_first_non_finite_loss(chain_ds, monkeypatch):
    cfg = small_config(diff_epochs=3)
    per_epoch = -(-len(build_diffusion_training_set(chain_ds, cfg.M)) // cfg.diff_batch_size)
    real, calls = am.diffusion.training_loss, []

    def poisoned(*args, **kwargs):
        calls.append(None)
        loss = real(*args, **kwargs)
        return nd.mul(loss, float("nan")) if len(calls) == per_epoch + 2 else loss

    monkeypatch.setattr(am.diffusion, "training_loss", poisoned)
    with pytest.raises(FloatingPointError, match="train-diffusion: loss nan at epoch 2, batch 2$"):
        train_augmentor(chain_ds, cfg)
    assert len(calls) == per_epoch + 2


# each trainer's loss function, as a module global the loop looks up per batch, and a
# short training through the trainer's public entry point
TRAINERS = {
    "train-diffusion": (am.diffusion, "training_loss",
                        lambda ds: train_augmentor(ds, small_config(diff_epochs=2))),
    "train-srs": (srs, "_batch_loss", lambda ds: srs.train(
        SrsModel(SrsConfig(num_items=ds.num_items, embed_dim=8, blocks=1, max_len=12),
                 seed_stream(3, "srs")),
        leave_one_out_split(ds), RunConfig(srs_epochs=2, srs_batch_size=16, seed=3))),
}


@pytest.mark.parametrize("trainer", TRAINERS)
def test_trainer_frees_each_batch_graph_before_the_next(chain_ds, monkeypatch, trainer):
    # Tensor has no __weakref__ slot, so each loss is watched through its data
    # array, which only the loss node holds
    owner, name, train = TRAINERS[trainer]
    real, watched = getattr(owner, name), []

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in watched), "a previous batch's loss is still alive"
        loss = real(*args, **kwargs)
        watched.append(weakref.ref(loss.data))
        return loss

    monkeypatch.setattr(owner, name, spy)
    train(chain_ds)
    assert len(watched) > 2


def test_train_augmentor_checkpoint_reproduces_loss(chain_ds, tmp_path):
    from seqaug import diffusion
    from seqaug.sunet import SUNet
    cfg = small_config(diff_epochs=2)
    model, _ = train_augmentor(chain_ds, cfg)
    path = tmp_path / "diff.ckpt"
    model.save(path)
    clone = SUNet(model.config, model.num_items, seed_stream(9, "clone"))
    clone.load_state_arrays(load_checkpoint(path)[0])
    sched = cfg.schedule()
    aug_ids = np.array([[1, 2, 3], [4, 5, 6]])
    raws = [[7, 8], [9]]
    t = np.array([2, 5])
    eps = np.random.default_rng(0).standard_normal((2, 3, 16))
    l1 = diffusion.loss_given_draws(model, aug_ids, raws, sched, t, eps)
    l2 = diffusion.loss_given_draws(clone, aug_ids, raws, sched, t, eps)
    assert float(l1.data) == float(l2.data)


def prefixes(ds, out):
    """Each user's generated pre-order items in ``out``, after checking that
    ``out`` holds the users of ``ds`` in order, each with their sequence last."""
    assert list(out.users) == list(ds.users)
    cut = {u: len(out.users[u]) - len(seq) for u, seq in ds.users.items()}
    assert all(out.users[u][cut[u]:] == seq for u, seq in ds.users.items())
    return {u: out.users[u][:cut[u]] for u in ds.users}


def test_strategy_none_returns_dataset_unchanged(chain_ds):
    out, zero_rows = augment_dataset(chain_ds, small_config(strategy="none"))
    assert out == chain_ds and list(out.users) == list(chain_ds.users) and zero_rows == 0


def test_random_strategy_lengths_and_range(chain_ds):
    out, _ = augment_dataset(chain_ds, small_config(strategy="random", M=4))
    assert out.num_items == chain_ds.num_items
    for aug in prefixes(chain_ds, out).values():
        assert len(aug) == 4
        assert all(1 <= v <= chain_ds.num_items for v in aug)


def test_random_seq_single_item_support_repeats():
    ds = InteractionDataset(users={1: [7, 7, 7, 7]}, num_items=9)
    out, _ = augment_dataset(ds, small_config(strategy="random_seq", M=5))
    assert out.users == {1: [7] * 9}


def test_random_seq_draws_from_own_sequence(chain_ds):
    out, _ = augment_dataset(chain_ds, small_config(strategy="random_seq", M=6))
    for u, aug in prefixes(chain_ds, out).items():
        support = set(chain_ds.users[u][:-1])  # test item excluded by default
        assert len(aug) == 6 and set(aug) <= support


def test_random_strategies_seed_determinism(chain_ds):
    a, _ = augment_dataset(chain_ds, small_config(strategy="random", seed=5))
    b, _ = augment_dataset(chain_ds, small_config(strategy="random", seed=5))
    c, _ = augment_dataset(chain_ds, small_config(strategy="random", seed=6))
    assert a.users == b.users
    assert a.users != c.users


def test_reverse_gen_strategy(chain_ds):
    split = leave_one_out_split(chain_ds)
    rev = SrsModel(SrsConfig(num_items=chain_ds.num_items, embed_dim=16, blocks=1,
                             max_len=20, dropout=0.0), seed_stream(4, "rev"))
    train_reverse(rev, split, RunConfig(srs_epochs=3, srs_batch_size=32, seed=1))
    out, _ = augment_dataset(chain_ds, small_config(strategy="reverse_gen"), reverse_model=rev)
    for aug in prefixes(chain_ds, out).values():
        assert len(aug) == 3
        assert all(1 <= v <= chain_ds.num_items for v in aug)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_validates_and_runs_or_names_its_model(chain_ds, tmp_path, strategy):
    """A strategy that needs a model is refused at the stage boundary, before
    ``augment_dataset`` runs, with the command-line flag that names the model."""
    cfg = small_config(strategy=strategy)
    if strategy in ("none", "random", "random_seq"):
        out, zero_rows = augment_dataset(chain_ds, cfg)
        assert zero_rows == 0 and list(out.users) == list(chain_ds.users)
    else:
        save_sequences(chain_ds, tmp_path / "sequences.tsv")
        with pytest.raises(ValueError, match=f"^strategy {strategy} needs --"):
            pipeline.run_augment(cfg, str(tmp_path), str(tmp_path / "aug"))


def test_diffusion_sampling_refuses_non_finite_samples(chain_ds, monkeypatch):
    cfg = small_config(diff_epochs=1, sample_batch=7)
    model, _ = train_augmentor(chain_ds, cfg)
    real, calls = am.diffusion.sample, []

    def poisoned(*args, **kwargs):
        calls.append(None)
        x = real(*args, **kwargs)
        return x * np.nan if len(calls) == 2 else x

    monkeypatch.setattr(am.diffusion, "sample", poisoned)
    second = list(chain_ds.users)[7]
    with pytest.raises(FloatingPointError,
                       match=f"diffusion_cf sampled a non-finite value .* user {second}$"):
        augment_dataset(chain_ds, cfg, model=model)


def test_manifest_counts_zero_norm_rows(chain_ds, monkeypatch):
    cfg = small_config(diff_epochs=1)
    model, _ = train_augmentor(chain_ds, cfg)
    assert augment_dataset(chain_ds, cfg, model=model)[1] == 0
    monkeypatch.setattr(am.diffusion, "sample",
                        lambda model, raws, M, *a, **kw: np.zeros((len(raws), M, 16)))
    _, zero_rows = augment_dataset(chain_ds, cfg, model=model)
    assert zero_rows == len(chain_ds.users) * cfg.M


def test_diffusion_cf_end_to_end_contract(chain_ds):
    cfg = small_config(diff_epochs=2)
    model, _ = train_augmentor(chain_ds, cfg)
    out, _ = augment_dataset(chain_ds, cfg, model=model)
    for aug in prefixes(chain_ds, out).values():
        assert len(aug) == cfg.M
        assert all(1 <= v <= chain_ds.num_items for v in aug), "no padding id in augmentation"


def test_diffusion_cf_batch_size_independent(chain_ds):
    cfg = small_config(diff_epochs=2)
    model, _ = train_augmentor(chain_ds, cfg)
    one, _ = augment_dataset(chain_ds, small_config(diff_epochs=2, sample_batch=7), model=model)
    two, _ = augment_dataset(chain_ds, small_config(diff_epochs=2, sample_batch=128), model=model)
    assert one.users == two.users


def test_short_only_flag(chain_ds):
    cfg = small_config(strategy="random", short_only=True)
    out, _ = augment_dataset(chain_ds, cfg)
    for u, aug in prefixes(chain_ds, out).items():
        if len(chain_ds.users[u]) <= 5:
            assert len(aug) == cfg.M
        else:
            assert aug == []


def test_emit_roundtrip_and_manifest(chain_ds, tmp_path):
    cfg = small_config(strategy="random", M=2)
    vocab = {100 + i: i for i in range(1, chain_ds.num_items + 1)}
    out, _ = augment_dataset(replace(chain_ds, item_vocab=vocab), cfg)
    assert out.item_vocab == vocab
    seq_path = emit(out, tmp_path / "aug")
    loaded = load_sequences(seq_path)
    assert loaded.users == out.users
    assert all(len(loaded.users[u]) == len(seq) + 2 for u, seq in chain_ds.users.items())
    assert load_vocab(tmp_path / "aug" / "vocab.tsv") == vocab
    # the stage's manifest.json is run_augment's to write
    assert sorted(os.listdir(tmp_path / "aug")) == ["sequences.tsv", "vocab.tsv"]


def test_emit_same_schema_across_seeds(chain_ds, tmp_path):
    for seed in (1, 2):
        out, _ = augment_dataset(chain_ds, small_config(strategy="random", seed=seed))
        emit(out, tmp_path / f"s{seed}")
        # no raw-id mapping, no vocabulary sidecar
        assert os.listdir(tmp_path / f"s{seed}") == ["sequences.tsv"]
    a = (tmp_path / "s1" / "sequences.tsv").read_text().splitlines()
    b = (tmp_path / "s2" / "sequences.tsv").read_text().splitlines()
    assert len(a) == len(b)
    assert a != b
    assert all(line.count("\t") == 1 for line in a + b)


def test_no_test_item_leaks_into_training_pairs(chain_ds):
    from seqaug.dataset import build_diffusion_training_set
    split = leave_one_out_split(chain_ds)
    pairs = build_diffusion_training_set(chain_ds, M=3, exclude_test=True)
    for user, target, rest in pairs:
        test_item = split.test_target[user]
        full = target + rest
        assert full == chain_ds.users[user][:-1]
        assert len(full) == len(chain_ds.users[user]) - 1
