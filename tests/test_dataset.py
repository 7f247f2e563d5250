import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqaug import dataset as dsm


def write_log(tmp_path, rows, name="log.tsv"):
    path = tmp_path / name
    path.write_text("".join(f"{u}\t{i}\t{t}\n" for u, i, t in rows), encoding="utf-8")
    return path


def test_load_filters_short_users(tmp_path):
    rows = [(1, 10, 0), (1, 11, 1),                             # length 2 -> dropped
            (2, 10, 0), (2, 12, 1), (2, 13, 2),                 # length 3
            (3, 14, 0), (3, 15, 1), (3, 16, 2), (3, 10, 3),
            (3, 11, 4), (3, 12, 5), (3, 13, 6)]                 # length 7
    ds = dsm.load_interactions(write_log(tmp_path, rows), min_len=3)
    assert ds.num_users == 2
    assert sorted(len(s) for s in ds.users.values()) == [3, 7]


def test_dense_reindex_preserves_first_seen_order(tmp_path):
    rows = [(5, 10, 0), (5, 500, 1), (5, 7, 2)]
    ds = dsm.load_interactions(write_log(tmp_path, rows))
    assert ds.item_vocab == {10: 1, 500: 2, 7: 3}
    assert ds.users[5] == [1, 2, 3]
    assert ds.num_items == 3
    # bijection: decoding then encoding is the identity
    inverse = {v: k for k, v in ds.item_vocab.items()}
    assert len(inverse) == len(ds.item_vocab)
    assert all(ds.item_vocab[inverse[v]] == v for v in inverse)


def test_timestamp_order_with_input_order_ties(tmp_path):
    rows = [(1, 30, 5), (1, 20, 5), (1, 10, 1)]
    ds = dsm.load_interactions(write_log(tmp_path, rows))
    # ts=1 first, then the two ts=5 in input order
    raw_order = [10, 30, 20]
    assert [k for k, _ in sorted(ds.item_vocab.items(), key=lambda kv: kv[1])] == raw_order


# loader, a good first line, a bad second line and the message it must give
MALFORMED = {
    "interactions-fields": (dsm.load_interactions, "1\t2\t3", "not a line",
                            "expected 3 tab-separated fields, got 1"),
    "interactions-int": (dsm.load_interactions, "1\t2\t3", "1\tx\t3",
                         "invalid literal for int() with base 10: 'x'"),
    "interactions-float": (dsm.load_interactions, "1\t2\t3", "1\t2\tlate",
                           "could not convert string to float: 'late'"),
    "interactions-id": (dsm.load_interactions, "1\t2\t3", "0\t2\t3",
                        "user id must be >= 1, got 0"),
    "sequences-fields": (dsm.load_sequences, "1\t2,3", "1\t2\t3",
                         "expected 2 tab-separated fields, got 3"),
    "sequences-int": (dsm.load_sequences, "1\t2,3", "2\t4,x",
                      "invalid literal for int() with base 10: 'x'"),
    "sequences-id": (dsm.load_sequences, "1\t2,3", "2\t4,0", "item ids must be >= 1"),
    "sequences-user-repeated": (dsm.load_sequences, "1\t2,3", "1\t4,5", "user id 1 repeated"),
    "vocab-fields-1": (dsm.load_vocab, "10\t1", "7", "expected 2 tab-separated fields, got 1"),
    "vocab-fields-3": (dsm.load_vocab, "10\t1", "7\t1\t2",
                       "expected 2 tab-separated fields, got 3"),
    "vocab-int": (dsm.load_vocab, "10\t1", "x\t1", "invalid literal for int() with base 10: 'x'"),
    "vocab-id": (dsm.load_vocab, "10\t1", "7\t0", "dense id must be >= 1, got 0"),
    "vocab-raw-repeated": (dsm.load_vocab, "10\t1", "10\t2", "raw id 10 repeated"),
    "vocab-dense-repeated": (dsm.load_vocab, "10\t1", "7\t1", "dense id 1 repeated"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_line_reports_path_line_and_cause(tmp_path, case):
    load, good, bad, message = MALFORMED[case]
    path = tmp_path / "bad.tsv"
    path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(dsm.ParseError) as info:
        load(path)
    assert str(info.value) == f"{path}:2: {message}"
    assert info.value.line_no == 2


def test_empty_vocab_names_its_file(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        dsm.load_vocab(path)
    assert str(info.value) == f"{path}: empty vocabulary"


def test_empty_result_is_explicit_error(tmp_path):
    path = write_log(tmp_path, [(1, 10, 0), (1, 11, 1)])
    with pytest.raises(dsm.EmptyDatasetError):
        dsm.load_interactions(path, min_len=3)


def test_split_definition():
    ds = dsm.InteractionDataset(users={1: [5, 9, 2, 7], 2: [1, 2, 3]}, num_items=9)
    split = dsm.leave_one_out_split(ds)
    assert split.train[1] == [5, 9] and split.valid_target[1] == 2 and split.test_target[1] == 7
    assert split.train[2] == [1] and split.valid_target[2] == 2 and split.test_target[2] == 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=3, max_size=30))
def test_split_reconstruction_roundtrip(seq):
    ds = dsm.InteractionDataset(users={1: list(seq)}, num_items=50)
    split = dsm.leave_one_out_split(ds)
    assert split.full_sequence(1) == list(seq)


def test_split_reconstruction_many_random_sequences(rng):
    users = {}
    for u in range(1, 1001):
        n = int(rng.integers(3, 25))
        users[u] = [int(v) for v in rng.integers(1, 100, size=n)]
    split = dsm.leave_one_out_split(dsm.InteractionDataset(users=users, num_items=99))
    for u, seq in users.items():
        assert split.full_sequence(u) == seq


def test_diffusion_set_membership_boundary():
    users = {1: [1, 2, 3], 2: [1, 2, 3, 4, 5], 3: list(range(1, 10))}
    ds = dsm.InteractionDataset(users=users, num_items=9)
    pairs = dsm.build_diffusion_training_set(ds, M=4, exclude_test=False)
    assert sorted(p[0] for p in pairs) == [2, 3]
    pairs_excl = dsm.build_diffusion_training_set(ds, M=4, exclude_test=True)
    assert [p[0] for p in pairs_excl] == [3]


def test_diffusion_set_split_definition():
    ds = dsm.InteractionDataset(users={1: [1, 2, 3, 4, 5, 6]}, num_items=6)
    (user, target, rest), = dsm.build_diffusion_training_set(ds, M=4, exclude_test=False)
    assert (user, target, rest) == (1, [1, 2, 3, 4], [5, 6])


def test_diffusion_set_empty_raises_with_m():
    ds = dsm.InteractionDataset(users={1: [1, 2, 3]}, num_items=3)
    with pytest.raises(dsm.EmptyDiffusionSetError, match="M=10"):
        dsm.build_diffusion_training_set(ds, M=10)


def test_group_boundaries():
    assert dsm.group_of(3) == "short"
    assert dsm.group_of(5) == "short"
    assert dsm.group_of(6) == "medium"
    assert dsm.group_of(20) == "medium"
    assert dsm.group_of(21) == "long"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=200))
def test_groups_partition(n):
    assert sum(dsm.group_of(n) == g for g in dsm.GROUPS) == 1


def test_load_split_serialize_load_roundtrips_bit_exact(tmp_path, rng):
    rows = []
    for u in range(1, 30):
        n = int(rng.integers(3, 12))
        for ts, item in enumerate(rng.integers(1, 40, size=n)):
            rows.append((u, int(item) * 17, ts))
    path = write_log(tmp_path, rows)
    ds = dsm.load_interactions(path)
    seq_path = tmp_path / "sequences.tsv"
    dsm.save_sequences(ds, seq_path)
    first_bytes = seq_path.read_bytes()
    ds2 = dsm.load_sequences(seq_path)
    assert ds2.users == ds.users
    dsm.save_sequences(ds2, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == first_bytes
    vocab_path = tmp_path / "vocab.tsv"
    dsm.save_vocab(ds, vocab_path)
    assert dsm.load_vocab(vocab_path) == ds.item_vocab
