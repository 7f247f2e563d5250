import numpy as np
import pytest

from seqaug import numerics as nd
from seqaug import srs
from seqaug.config import RunConfig
from seqaug.dataset import InteractionDataset, leave_one_out_split
from seqaug.numerics import Tensor, seed_stream
from seqaug.numerics.checkpoint import load_checkpoint
from seqaug.srs import SrsModel


def tiny_model(num_items=10, d=16, blocks=1, max_len=12, dropout=0.0, key="m"):
    cfg = RunConfig(srs_embed_dim=d, srs_blocks=blocks, srs_max_len=max_len, srs_dropout=dropout)
    return SrsModel(cfg, num_items, seed_stream(3, key))


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
    s1, s2 = model.score_sequences([[1, 2, 3], [4, 5, 6]])
    assert s1.shape == (10,)
    assert np.abs(s1 - s2).max() > 1e-9


def test_overlength_input_truncates_to_most_recent():
    """A row longer than max_len scores as its last max_len items, beside rows
    shorter than max_len and as long as it."""
    model = tiny_model(max_len=4)
    rows = [[1, 2, 3, 4, 5, 6, 7], [7], [2, 9, 8, 3], [9, 8, 3, 1, 5]]
    np.testing.assert_array_equal(model.score_sequences(rows),
                                  model.score_sequences([row[-4:] for row in rows]))


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
    base = model.score_sequences([items])[0]
    mapped = permuted.score_sequences([relabeled])[0]
    for v in range(1, 7):
        assert mapped[perm[v - 1] - 1] == pytest.approx(base[v - 1], abs=1e-12)


def _first_block_states(model, rows):
    """The first block's output at every item of ``rows``, one (n, d) array per
    row: ``encode`` keeps only the last one, so causality is read one block down,
    on the packed slices ``encode`` gives the blocks."""
    lengths = np.array([len(row) for row in rows])
    packed_at, mask, _ = srs.pack_rows(lengths)
    with nd.no_grad():
        h = model.blocks[0](nd.embedding(model.item_emb, np.concatenate(rows)), packed_at, mask,
                            lambda x: x)
    return np.split(h.data, np.cumsum(lengths)[:-1])


def test_a_rows_states_do_not_depend_on_its_batch_mates(rng):
    """A row's first-block states and scores are the same whether the row stands
    alone or beside a longer row."""
    model = tiny_model(max_len=6)
    alone = _first_block_states(model, [[7, 8, 9]])
    beside = _first_block_states(model, [[1, 2, 3, 4, 5], [7, 8, 9]])
    np.testing.assert_allclose(beside[1], alone[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.score_sequences([[1, 2, 3, 4, 5], [7, 8, 9]])[1],
                               model.score_sequences([[7, 8, 9]])[0], rtol=0, atol=1e-12)


def test_causality_perturbing_position_k_leaves_earlier_states_unchanged(rng):
    model = tiny_model(max_len=5)
    rows = [[1, 2, 3, 4, 5], [6, 7]]
    base = _first_block_states(model, rows)
    for k in range(5):
        edited = [list(row) for row in rows]
        edited[0][k] = edited[0][k] % 10 + 1
        out = _first_block_states(model, edited)
        np.testing.assert_array_equal(base[0][:k], out[0][:k])
        assert np.any(base[0][k] != out[0][k])
        np.testing.assert_array_equal(base[1], out[1])


def _full_width_encode(model):
    """``encode`` on its own left-padded (B, L) grid, L the longest row: every
    block at all L positions, padding included, then ``final_norm`` and the last
    column. Each dropout mask is drawn as the packed trunk draws it, one (N, d)
    draw over the items or one (B, d) draw over the last positions in the final
    block, and scattered into this layout's own (B, L, d) mask. This is the
    reference the packed trunk and its last-position final block must match."""
    cfg = model.config

    def block_at_full_width(block, h, mask, drop):
        a = block.norm1(h)
        a = nd.scaled_dot_attention(block.q(a), block.k(a), block.v(a), mask=mask)
        h = nd.add(h, drop(a))
        f = block.ffn2(nd.relu(block.ffn1(block.norm2(h))))
        return nd.add(h, drop(f))

    def encode(rows=None, emb_seq=None, train=False, rng=None):
        if emb_seq is None:
            rows = [row[-cfg.srs_max_len:] for row in rows]
            ids = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
            for i, row in enumerate(rows):
                ids[i, ids.shape[1] - len(row):] = row
            real, emb_seq = ids != 0, nd.embedding(model.item_emb, ids)
        else:
            real = np.ones(emb_seq.shape[:2], dtype=bool)
        L = real.shape[1]
        last = np.zeros(real.shape, dtype=bool)
        last[:, -1] = True

        def drop(x, kept):
            if not train or cfg.srs_dropout == 0.0:
                return x
            u = np.zeros(x.shape)
            u[kept] = rng.random((int(kept.sum()), cfg.srs_embed_dim))
            return nd.mul(x, ((u >= cfg.srs_dropout) / (1.0 - cfg.srs_dropout)).astype(x.dtype))

        h = nd.mul(emb_seq, float(np.sqrt(cfg.srs_embed_dim)))
        h = drop(nd.add(h, nd.take(model.pos_emb, np.arange(cfg.srs_max_len - L, cfg.srs_max_len))), real)
        # a real query sees itself and the real positions before it
        seen = np.tril(np.ones((L, L), dtype=bool)) & real[:, None, :]
        mask = np.where(seen, 0.0, -1e9).astype(nd.default_dtype())
        for block in model.blocks:
            kept = last if block is model.blocks[-1] else real
            h = block_at_full_width(block, h, mask, lambda x: drop(x, kept))
        return nd.take(model.final_norm(h), (slice(None), -1))

    return encode


def _oracle_outputs(model, batches, x):
    """States, loss and every parameter gradient of each dropout batch in turn, drawn
    from one generator, then score_embedded's input gradient on ``x``."""
    states_rng, loss_rng = seed_stream(9, "states"), seed_stream(9, "loss")
    out = {}
    for i, batch in enumerate(batches):
        rows = [row[0] for row in batch]
        out[f"states {i}"] = model.encode(rows=rows, train=True, rng=states_rng).data
        model.zero_grad()
        loss = srs._batch_loss(model, batch, train=True, rng=loss_rng)
        nd.backward(loss)
        out[f"loss {i}"] = loss.data
        out.update((f"grad {i} {n}", p.grad.copy()) for n, p in model.parameters().items())
    emb = Tensor(x.copy(), requires_grad=True)
    nd.backward(nd.mean(model.score_embedded(emb)))
    out["input grad"] = emb.grad
    out["next draw"] = np.r_[states_rng.random(3), loss_rng.random(3)]
    return out


def _assert_packed_matches_full_width(monkeypatch, blocks, batches):
    x = np.random.default_rng(4).standard_normal((2, 4, 16))
    with nd.precision("float64"):
        model = tiny_model(num_items=10, d=16, blocks=blocks, max_len=12, dropout=0.6)
        packed = _oracle_outputs(model, batches, x)
        monkeypatch.setattr(model, "encode", _full_width_encode(model))
        full = _oracle_outputs(model, batches, x)
    assert packed.keys() == full.keys()
    for name in packed:
        np.testing.assert_allclose(packed[name], full[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("blocks", [1, 2])
def test_last_position_final_block_matches_full_width(monkeypatch, blocks):
    """The packed trunk matches the full-width reference: states, loss, every
    parameter gradient and score_embedded's input gradient, over two
    consecutive dropout batches drawn from one generator. Rows run from one
    item to more than max_len."""
    batches = [[([3], 2, [7]), ([1, 4, 2, 9, 6, 5], 5, [8]), (list(range(1, 11)) * 2, 10, [1])],
               [([2, 9], 4, [3]), ([7], 3, [2]), ([7, 1, 1, 6, 2, 8, 3, 5, 4, 9, 2, 8, 1, 3], 6, [5])]]
    _assert_packed_matches_full_width(monkeypatch, blocks, batches)


def _row_slices(rows):
    """The slice ``pack_rows`` puts each of ``rows`` in."""
    _, _, (_, (slices, _), _) = srs.pack_rows(np.array([len(row) for row in rows]))
    return slices


def test_rows_sharing_a_slice_match_full_width(monkeypatch):
    """One max-width row and several short ones, which share slices: every
    state, the loss and every gradient match the full-width reference."""
    rows = [[4, 2, 7], list(range(1, 11)) + [3, 5], [6], [9, 8, 1, 2, 5], [2, 2], [8, 3, 6, 1]]
    batch = [(row, 1 + i, [10 - i]) for i, row in enumerate(rows)]
    assert len(np.unique(_row_slices(rows))) == 3
    _assert_packed_matches_full_width(monkeypatch, 2, [batch])


def test_editing_a_row_leaves_its_slice_mates_unchanged():
    """Rows packed into one slice read none of each other's keys: changing an
    item of one row leaves every other row's first-block states byte-equal."""
    model = tiny_model(max_len=8)
    rows = [[1, 2, 3, 4, 5, 6, 7, 8], [3, 1], [5, 4, 9], [2, 6, 7]]
    slices = _row_slices(rows)
    mates = np.flatnonzero(slices == slices[1])
    assert len(mates) == 3
    base = _first_block_states(model, rows)
    for row in mates:
        for col in range(len(rows[row])):
            edited = [list(r) for r in rows]
            edited[row][col] = edited[row][col] % 10 + 1
            out = _first_block_states(model, edited)
            assert np.any(out[row] != base[row])
            for other in range(len(rows)):
                if other != row:
                    np.testing.assert_array_equal(out[other], base[other])


def test_a_long_row_does_not_widen_the_short_rows(monkeypatch):
    """64 rows of length 2 and one of 40 attend in at most ceil(168 / 40) + 1
    slices of width 40, not in a (65, 40, 40) padded grid."""
    model = tiny_model(num_items=10, max_len=40)
    rng = np.random.default_rng(5)
    seqs = [list(rng.integers(1, 11, size=2)) for _ in range(64)] + [list(rng.integers(1, 11, size=40))]
    shapes, attend = [], nd.scaled_dot_attention

    def recording(q, k, v, mask=None):
        shapes.append(k.shape)
        return attend(q, k, v, mask=mask)

    monkeypatch.setattr(nd, "scaled_dot_attention", recording)
    model.encode(rows=seqs)
    assert len(shapes) == 1 and shapes[0][1:] == (40, 16)
    assert shapes[0][0] <= -(-168 // 40) + 1


def test_encode_refuses_an_empty_row_and_ids_below_one():
    model = tiny_model()
    for rows, message in (([[1, 2], []], "cannot score an empty sequence"),
                          ([[3], [1, 0, 3]], "item ids start at 1, got 0"),
                          ([[2, -1]], "item ids start at 1, got -1")):
        with pytest.raises(ValueError, match=message):
            model.encode(rows=rows)


def test_encode_refuses_rows_wider_than_max_len():
    """Id rows are cut to their last max_len items, but an embedding sequence
    reaches ``encode`` as it is; wider than max_len it would have no position
    embeddings."""
    model = tiny_model(max_len=4)
    with pytest.raises(ValueError, match="6 positions wide, but max_len is 4"):
        model.score_embedded(Tensor(np.zeros((2, 6, 16))))


def test_embedding_matrix_path_matches_id_path_exactly(rng):
    model = tiny_model(num_items=8, d=16, max_len=5)
    seqs = [[2, 5, 7], [4, 1, 8], [1, 3, 6]]
    with nd.no_grad():
        looked_up = nd.embedding(model.item_emb, np.array(seqs))
        via_emb = model.logits_all(model.encode(emb_seq=looked_up)).data
    np.testing.assert_array_equal(via_emb, model.score_sequences(seqs))


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

    model_hr = hr10(lambda u: model.score_sequences([split.train[u] + [split.valid_target[u]]])[0])
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
        pred = int(np.argmax(model.score_sequences([[v]])[0])) + 1
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
    other.load_state_arrays(load_checkpoint(path)[0])
    np.testing.assert_array_equal(other.score_sequences([[1, 2]]), model.score_sequences([[1, 2]]))
