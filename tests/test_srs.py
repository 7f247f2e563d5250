import numpy as np
import pytest

from seqaug import numerics as nd
from seqaug import srs
from seqaug.config import RunConfig
from seqaug.dataset import InteractionDataset, leave_one_out_split
from seqaug.numerics import Tensor, seed_stream
from seqaug.srs import SrsConfig, SrsModel


def tiny_model(num_items=10, d=16, blocks=1, max_len=12, dropout=0.0, key="m"):
    cfg = SrsConfig(num_items=num_items, embed_dim=d, blocks=blocks,
                    max_len=max_len, dropout=dropout)
    return SrsModel(cfg, seed_stream(3, key))


def alternating_dataset(n_users=10, length=8):
    users = {}
    for u in range(1, n_users + 1):
        start = 1 + (u % 2)
        users[u] = [(start + i - 1) % 2 + 1 for i in range(1, length + 1)]
    return InteractionDataset(users=users, num_items=2)


# ---------------------------------------------------------------------------
# scoring


def test_different_histories_give_different_logits(rng):
    model = tiny_model()
    s1 = model.score_next([1, 2, 3])
    s2 = model.score_next([4, 5, 6])
    assert s1.shape == (10,)
    assert np.abs(s1 - s2).max() > 1e-9


def test_overlength_input_truncates_to_most_recent():
    model = tiny_model(max_len=4)
    long = [1, 2, 3, 4, 5, 6, 7]
    np.testing.assert_array_equal(model.score_next(long), model.score_next(long[-4:]))


def test_relabeling_equivariance(rng):
    """Permuting embedding rows and relabeling inputs permutes the logits."""
    model = tiny_model(num_items=6, d=8)
    perm = np.array([3, 1, 5, 2, 6, 4])  # image of items 1..6
    permuted = tiny_model(num_items=6, d=8, key="other")
    for name, p in model.parameters().items():
        permuted.parameters()[name].data = p.data.copy()
    table = model.item_emb.data
    new_table = table.copy()
    for v in range(1, 7):
        new_table[perm[v - 1]] = table[v]
    permuted.item_emb.data = new_table

    items = [2, 4, 1]
    relabeled = [int(perm[v - 1]) for v in items]
    base = model.score_next(items)
    mapped = permuted.score_next(relabeled)
    for v in range(1, 7):
        assert mapped[perm[v - 1] - 1] == pytest.approx(base[v - 1], abs=1e-12)


def test_causal_mask_padding_slot_does_not_affect_hidden_states(rng):
    model = tiny_model(max_len=6)
    # padded by hand: pad_batch trims a lone row to its own length
    ids_a = np.array([[0, 0, 0, 7, 8, 9]], dtype=np.int64)
    ids_b = ids_a.copy()
    # perturb a padding slot's id path by comparing hidden states for a
    # history extended on the left: earlier positions must not change
    with nd.no_grad():
        h_a = model.encode(ids=ids_a).data
    ids_b[0, 2] = 5  # the slot just left of the real items
    with nd.no_grad():
        h_b = model.encode(ids=ids_b).data
    # positions strictly before the perturbed slot are bitwise unchanged
    np.testing.assert_array_equal(h_a[0, :2], h_b[0, :2])


def test_causality_perturbing_position_k_leaves_earlier_states_unchanged(rng):
    model = tiny_model(max_len=5)
    ids = model.pad_batch([[1, 2, 3, 4, 5]])
    with nd.no_grad():
        base = model.encode(ids=ids).data
    for k in range(5):
        mod = ids.copy()
        mod[0, k] = (mod[0, k] % 10) + 1
        with nd.no_grad():
            out = model.encode(ids=mod).data
        np.testing.assert_array_equal(base[0, :k], out[0, :k])


def _pad_to_max_len(model, sequences):
    """The untrimmed layout: every row left-padded to max_len."""
    L = model.config.max_len
    out = np.zeros((len(sequences), L), dtype=np.int64)
    for i, seq in enumerate(sequences):
        out[i, L - len(seq):] = seq
    return out


def test_pad_batch_trims_to_longest_row_capped_at_max_len():
    model = tiny_model(max_len=4)
    np.testing.assert_array_equal(model.pad_batch([[5], [1, 2, 3]]), [[0, 0, 5], [1, 2, 3]])
    np.testing.assert_array_equal(model.pad_batch([[1, 2, 3, 4, 5, 6], [7]]),
                                  [[3, 4, 5, 6], [0, 0, 0, 7]])
    with pytest.raises(ValueError):
        model.pad_batch([[1], []])


def test_trimmed_batch_matches_full_width_with_dropout(monkeypatch):
    """Trimming a batch to its longest row leaves hidden states, loss and
    every gradient as at full max_len width, dropout included: the masks are
    drawn at max_len width, so the generator advances alike."""
    model = tiny_model(num_items=10, d=16, blocks=2, max_len=12, dropout=0.6)
    seqs = [[3], [1, 4, 2], [5, 6, 7, 8, 9]]
    trimmed = model.pad_batch(seqs)
    assert trimmed.shape == (3, 5)
    h_trim = model.last_hidden(ids=trimmed, train=True, rng=seed_stream(9, "drop")).data
    h_full = model.last_hidden(ids=_pad_to_max_len(model, seqs), train=True,
                               rng=seed_stream(9, "drop")).data
    np.testing.assert_allclose(h_trim, h_full, rtol=0, atol=1e-12)

    batch = [(seq, target, [neg]) for seq, target, neg in zip(seqs, [2, 5, 10], [7, 8, 1])]

    def loss_and_grads():
        loss = srs._batch_loss(model, batch, train=True, rng=seed_stream(9, "drop"))
        model.zero_grad()
        nd.backward(loss)
        return float(loss.data), {n: p.grad.copy() for n, p in model.parameters().items()}

    loss_trim, grads_trim = loss_and_grads()
    monkeypatch.setattr(model, "pad_batch", lambda s: _pad_to_max_len(model, s))
    loss_full, grads_full = loss_and_grads()
    assert abs(loss_trim - loss_full) <= 1e-12
    assert grads_trim.keys() == grads_full.keys()
    for name in grads_trim:
        np.testing.assert_allclose(grads_trim[name], grads_full[name], rtol=0, atol=1e-12,
                                   err_msg=name)


def test_embedding_matrix_path_matches_id_path_exactly(rng):
    model = tiny_model(num_items=8, d=16, max_len=3)
    items = [2, 5, 7]
    ids = model.pad_batch([items])
    with nd.no_grad():
        looked_up = nd.embedding(model.item_emb, ids)
        via_emb = model.logits_all(model.last_hidden(emb_seq=looked_up,
                                                     pad_rows=ids)).data
    via_ids = model.score_sequences([items])
    np.testing.assert_array_equal(via_emb, via_ids)


def test_score_embedded_produces_input_gradients(rng):
    model = tiny_model(num_items=8, d=16, max_len=4)
    x = Tensor(rng.standard_normal((2, 4, 16)), requires_grad=True)
    logits = model.score_embedded(x)
    nd.backward(nd.mean(logits))
    assert x.grad is not None and np.any(x.grad != 0)


# ---------------------------------------------------------------------------
# negatives


def test_negative_sampling_avoids_history(rng):
    forbidden = {1, 2, 3, 4, 5}
    for _ in range(50):
        negs = srs.sample_negatives(10, forbidden, 3, rng)
        assert len(negs) == 3
        assert not set(negs) & forbidden


def test_negative_sampling_empty_pool_returns_nothing(rng):
    assert srs.sample_negatives(2, {1, 2}, 1, rng) == []


def test_build_examples_prefixes():
    ex = srs.build_examples({1: [5, 6, 7]})
    assert ex == [(1, [5], 6), (1, [5, 6], 7)]


# ---------------------------------------------------------------------------
# training


def test_training_loss_converges_on_alternating_dataset():
    ds = alternating_dataset()
    split = leave_one_out_split(ds)
    model = tiny_model(num_items=2, d=16, blocks=1, max_len=10)
    cfg = RunConfig(srs_epochs=200, srs_batch_size=32, srs_lr=3e-3, seed=7)
    history = srs.train(model, split, cfg)
    assert history["loss"][-1] < 0.1
    assert min(history["loss"]) <= history["loss"][0]


def test_training_deterministic_given_seed():
    ds = alternating_dataset(n_users=6, length=6)
    split = leave_one_out_split(ds)
    runs = []
    for _ in range(2):
        model = tiny_model(num_items=2, d=8, max_len=8, dropout=0.0)
        cfg = RunConfig(srs_epochs=5, srs_batch_size=16, srs_lr=1e-3, seed=11)
        runs.append(srs.train(model, split, cfg)["loss"])
    np.testing.assert_array_equal(runs[0], runs[1])


def test_training_stops_at_the_first_non_finite_loss(monkeypatch):
    split = leave_one_out_split(alternating_dataset(n_users=6, length=6))
    cfg = RunConfig(srs_epochs=3, srs_batch_size=4, seed=2)
    per_epoch = -(-len(srs.build_examples(split.train)) // cfg.srs_batch_size)
    real, calls = srs._batch_loss, []

    def poisoned(*args, **kwargs):
        calls.append(None)
        loss = real(*args, **kwargs)
        return nd.mul(loss, float("inf")) if len(calls) == per_epoch + 2 else loss

    monkeypatch.setattr(srs, "_batch_loss", poisoned)
    with pytest.raises(FloatingPointError, match="train-srs: loss inf at epoch 2, batch 2$"):
        srs.train(tiny_model(num_items=2, max_len=6), split, cfg)
    assert len(calls) == per_epoch + 2


def test_trained_model_beats_popularity_baseline(rng):
    # first-order chain where popularity is uninformative (uniform stationary)
    from seqaug import synth
    rows = synth.generate_interactions(num_users=120, num_items=12, seed=5)
    users = {}
    for u, item, _ in rows:
        users.setdefault(u, []).append(item)
    users = {u: s for u, s in users.items() if len(s) >= 3}
    ds = InteractionDataset(users=users, num_items=12)
    split = leave_one_out_split(ds)
    model = tiny_model(num_items=12, d=16, blocks=1, max_len=16, key="chain")
    cfg = RunConfig(srs_epochs=40, srs_batch_size=64, srs_lr=3e-3, seed=2)
    srs.train(model, split, cfg)

    counts = np.zeros(12)
    for seq in split.train.values():
        for v in seq:
            counts[v - 1] += 1

    def hr10(score_fn):
        hits = 0
        for u in users:
            scores = score_fn(u)
            target = split.test_target[u]
            rank = 1 + int(np.sum(scores >= scores[target - 1])) - 1
            hits += rank <= 10
        return hits / len(users)

    model_hr = hr10(lambda u: model.score_next(split.train[u] + [split.valid_target[u]]))
    pop_hr = hr10(lambda u: counts)
    assert model_hr > pop_hr


# ---------------------------------------------------------------------------
# reverse generator


def test_reverse_model_learns_markov_mode(rng):
    # deterministic backward structure: i -> i-1 (cyclic); the reverse model
    # must recover the reversed-chain mode transition for most contexts
    num_items = 8
    users = {}
    for u in range(1, 41):
        start = (u % num_items) + 1
        seq = [(start + i - 1) % num_items + 1 for i in range(6)]
        users[u] = seq
    ds = InteractionDataset(users=users, num_items=num_items)
    split = leave_one_out_split(ds)
    model = tiny_model(num_items=num_items, d=16, blocks=1, max_len=8, key="rev")
    cfg = RunConfig(srs_epochs=120, srs_batch_size=64, srs_lr=3e-3, seed=3)
    srs.train_reverse(model, split, cfg)
    correct = 0
    for v in range(1, num_items + 1):
        pred = int(np.argmax(model.score_next([v]))) + 1
        expected = (v - 2) % num_items + 1  # predecessor in the forward chain
        correct += pred == expected
    assert correct / num_items >= 0.6


def test_generate_preorder_zero_is_empty():
    model = tiny_model()
    assert srs.generate_preorder(model, [1, 2, 3], 0) == []


def test_generate_preorder_deterministic():
    model = tiny_model()
    a = srs.generate_preorder(model, [3, 4, 5], 4)
    b = srs.generate_preorder(model, [3, 4, 5], 4)
    assert a == b and len(a) == 4


def test_generate_preorder_continues_alternation():
    ds = alternating_dataset(n_users=10, length=8)
    split = leave_one_out_split(ds)
    model = tiny_model(num_items=2, d=16, blocks=1, max_len=12, key="alt")
    cfg = RunConfig(srs_epochs=150, srs_batch_size=32, srs_lr=3e-3, seed=9)
    srs.train_reverse(model, split, cfg)
    raw = [1, 2, 1, 2]  # next-backward from 1 is 2, etc.
    pre = srs.generate_preorder(model, raw, 4)
    assert pre == [1, 2, 1, 2]


def test_checkpoint_roundtrip(tmp_path):
    model = tiny_model()
    path = tmp_path / "srs.ckpt"
    model.save(path, meta={"role": "backbone"})
    other = tiny_model(key="blank")
    other.load(path)
    np.testing.assert_array_equal(other.score_next([1, 2]), model.score_next([1, 2]))
