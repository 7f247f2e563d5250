import json
import os

import numpy as np
import pytest

from seqaug import augment as am
from seqaug import numerics as nd
from seqaug import pipeline, synth
from seqaug.augment import augment_dataset, emit, train_augmentor
from seqaug.config import STRATEGIES, RunConfig
from seqaug.dataset import (EmptyDiffusionSetError, InteractionDataset,
                            build_diffusion_training_set, leave_one_out_split,
                            load_sequences, save_sequences)
from seqaug.numerics import seed_stream
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


def test_train_augmentor_checkpoint_reproduces_loss(chain_ds, tmp_path):
    from seqaug import diffusion
    from seqaug.sunet import SUNet
    cfg = small_config(diff_epochs=2)
    model, _ = train_augmentor(chain_ds, cfg)
    path = tmp_path / "diff.ckpt"
    model.save(path)
    clone = SUNet(model.config, model.num_items, seed_stream(9, "clone"))
    clone.load(path)
    sched = cfg.schedule()
    aug_ids = np.array([[1, 2, 3], [4, 5, 6]])
    raws = [[7, 8], [9]]
    t = np.array([2, 5])
    eps = np.random.default_rng(0).standard_normal((2, 3, 16))
    l1 = diffusion.loss_given_draws(model, aug_ids, raws, sched, t, eps)
    l2 = diffusion.loss_given_draws(clone, aug_ids, raws, sched, t, eps)
    assert float(l1.data) == float(l2.data)


def test_strategy_none_returns_dataset_unchanged(chain_ds):
    out = augment_dataset(chain_ds, small_config(strategy="none"))
    assert set(out.entries) == set(chain_ds.users)
    for u, (aug, raw) in out.entries.items():
        assert aug == [] and raw == chain_ds.users[u]


def test_random_strategy_lengths_and_range(chain_ds):
    out = augment_dataset(chain_ds, small_config(strategy="random", M=4))
    for u, (aug, raw) in out.entries.items():
        assert len(aug) == 4
        assert all(1 <= v <= chain_ds.num_items for v in aug)
        assert len(aug) + len(raw) == len(chain_ds.users[u]) + 4


def test_random_seq_single_item_support_repeats():
    ds = InteractionDataset(users={1: [7, 7, 7, 7]}, num_items=9)
    out = augment_dataset(ds, small_config(strategy="random_seq", M=5))
    assert out.entries[1][0] == [7, 7, 7, 7, 7]


def test_random_seq_draws_from_own_sequence(chain_ds):
    out = augment_dataset(chain_ds, small_config(strategy="random_seq", M=6))
    for u, (aug, _) in out.entries.items():
        support = set(chain_ds.users[u][:-1])  # test item excluded by default
        assert set(aug) <= support


def test_random_strategies_seed_determinism(chain_ds):
    a = augment_dataset(chain_ds, small_config(strategy="random", seed=5))
    b = augment_dataset(chain_ds, small_config(strategy="random", seed=5))
    c = augment_dataset(chain_ds, small_config(strategy="random", seed=6))
    assert a.entries == b.entries
    assert a.entries != c.entries


def test_reverse_gen_strategy(chain_ds):
    split = leave_one_out_split(chain_ds)
    rev = SrsModel(SrsConfig(num_items=chain_ds.num_items, embed_dim=16, blocks=1,
                             max_len=20, dropout=0.0), seed_stream(4, "rev"))
    train_reverse(rev, split, RunConfig(srs_epochs=3, srs_batch_size=32, seed=1))
    out = augment_dataset(chain_ds, small_config(strategy="reverse_gen"), reverse_model=rev)
    for u, (aug, _) in out.entries.items():
        assert len(aug) == 3
        assert all(1 <= v <= chain_ds.num_items for v in aug)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_validates_and_runs_or_names_its_model(chain_ds, strategy):
    cfg = small_config(strategy=strategy)
    if strategy in ("none", "random", "random_seq"):
        out = augment_dataset(chain_ds, cfg)
        assert out.zero_rows == 0 and set(out.entries) == set(chain_ds.users)
    else:
        with pytest.raises(ValueError, match=f"{strategy} needs a trained"):
            augment_dataset(chain_ds, cfg)


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
    assert augment_dataset(chain_ds, cfg, model=model).zero_rows == 0
    monkeypatch.setattr(am.diffusion, "sample",
                        lambda model, raws, M, *a, **kw: np.zeros((len(raws), M, 16)))
    out = augment_dataset(chain_ds, cfg, model=model)
    assert out.zero_rows == len(chain_ds.users) * cfg.M


def test_reverse_gen_requires_model(chain_ds):
    with pytest.raises(ValueError, match="reverse"):
        augment_dataset(chain_ds, small_config(strategy="reverse_gen"))


def test_diffusion_strategy_requires_model(chain_ds):
    with pytest.raises(ValueError, match="diffusion"):
        augment_dataset(chain_ds, small_config(strategy="diffusion_cf"))


def test_diffusion_cf_end_to_end_contract(chain_ds):
    cfg = small_config(diff_epochs=2)
    model, _ = train_augmentor(chain_ds, cfg)
    out = augment_dataset(chain_ds, cfg, model=model)
    assert set(out.entries) == set(chain_ds.users)
    for u, (aug, raw) in out.entries.items():
        assert len(aug) == cfg.M
        assert all(1 <= v <= chain_ds.num_items for v in aug), "no padding id in augmentation"
        assert raw == chain_ds.users[u]


def test_diffusion_cf_batch_size_independent(chain_ds):
    cfg = small_config(diff_epochs=2)
    model, _ = train_augmentor(chain_ds, cfg)
    one = augment_dataset(chain_ds, small_config(diff_epochs=2, sample_batch=7), model=model)
    two = augment_dataset(chain_ds, small_config(diff_epochs=2, sample_batch=128), model=model)
    assert one.entries == two.entries


def test_short_only_flag(chain_ds):
    cfg = small_config(strategy="random", short_only=True)
    out = augment_dataset(chain_ds, cfg)
    for u, (aug, _) in out.entries.items():
        if len(chain_ds.users[u]) <= 5:
            assert len(aug) == cfg.M
        else:
            assert aug == []


def test_emit_roundtrip_and_manifest(chain_ds, tmp_path):
    cfg = small_config(strategy="random", M=2)
    out = augment_dataset(chain_ds, cfg)
    vocab = {100 + i: i for i in range(1, chain_ds.num_items + 1)}
    seq_path = emit(out, tmp_path / "aug", item_vocab=vocab)
    loaded = load_sequences(seq_path)
    for u, (aug, raw) in out.entries.items():
        assert loaded.users[u] == aug + raw
        assert len(loaded.users[u]) == len(chain_ds.users[u]) + 2
    # the stage's manifest.json is run_augment's to write
    assert sorted(os.listdir(tmp_path / "aug")) == ["sequences.tsv", "vocab.tsv"]


def test_emit_same_schema_across_seeds(chain_ds, tmp_path):
    for seed in (1, 2):
        out = augment_dataset(chain_ds, small_config(strategy="random", seed=seed))
        emit(out, tmp_path / f"s{seed}")
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
