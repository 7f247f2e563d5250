"""Interaction-log ingestion, leave-one-out splitting, user grouping, and
the training subset for the augmentor.

Canonical on-disk formats, each TSV read through ``_tsv_rows``:
  * raw log:       ``user<TAB>item<TAB>timestamp`` per line (UTF-8 TSV)
  * sequence file: ``user_id<TAB>v1,v2,...,vn`` per line
  * vocabulary:    ``raw_id<TAB>dense_id`` per line
  * JSON (manifests, reports, training curves): written by ``save_json``
"""

import json
from dataclasses import dataclass, field

GROUP_SHORT = "short"
GROUP_MEDIUM = "medium"
GROUP_LONG = "long"
GROUPS = (GROUP_SHORT, GROUP_MEDIUM, GROUP_LONG)


class ParseError(ValueError):
    """A line of a TSV input failed to parse; carries the 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class EmptyDatasetError(ValueError):
    """Filtering left no usable users."""


class EmptyDiffusionSetError(ValueError):
    """No sequence is long enough to train the augmentor for the given M."""

    def __init__(self, M):
        super().__init__(f"no sequence longer than M={M}; lower M or provide longer histories")
        self.M = M


@dataclass
class InteractionDataset:
    """Per-user time-ordered item sequences with densely re-indexed item IDs.

    ``users`` maps user id -> item list; item ids run 1..num_items (0 is the
    padding id and never appears in a sequence). ``item_vocab`` maps the raw
    input ids onto the dense ids, preserving first-seen order.
    """

    users: dict
    num_items: int
    item_vocab: dict = field(default_factory=dict)

    @property
    def num_users(self):
        return len(self.users)

    def avg_length(self):
        return sum(len(s) for s in self.users.values()) / max(1, len(self.users))


@dataclass
class SplitDataset:
    """Leave-one-out split: train is items 1..n-2, then valid and test targets."""

    train: dict
    valid_target: dict
    test_target: dict

    def full_sequence(self, user):
        return list(self.train[user]) + [self.valid_target[user], self.test_target[user]]


def save_json(path, obj):
    """The one JSON writer: indented, sorted keys, and strict (NaN or infinity
    raises ValueError before the file is opened)."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _tsv_rows(path, width, parse):
    """``(line_no, parse(*fields))`` per non-empty line of a TSV file. A line
    without ``width`` fields, or one whose fields ``parse`` refuses with a
    ValueError, raises ParseError at ``path:line_no``. One call converts a whole
    line: a converter per field made load_interactions 1.6x slower (synth.cfg's
    4,159-line log, Python 3.11)."""
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != width:
                raise ParseError(path, line_no, f"expected {width} tab-separated fields, got {len(parts)}")
            try:
                row = parse(*parts)
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            yield line_no, row


def _positive_id(name, text):
    value = int(text)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _interaction(user, item, ts):
    return _positive_id("user id", user), int(item), float(ts)


def _sequence(user, items):
    user, seq = int(user), [int(v) for v in items.split(",")]
    if any(v < 1 for v in seq):
        raise ValueError("item ids must be >= 1")
    return user, seq


def load_interactions(path, min_len=3):
    """Parse a raw TSV log into an InteractionDataset.

    Users with fewer than ``min_len`` interactions are dropped before item
    re-indexing. Within a user, items are ordered by timestamp with ties
    broken by input-line order, so the result is a pure function of the
    input bytes.
    """
    per_user = {}
    for line_no, (user, item, ts) in _tsv_rows(path, 3, _interaction):
        per_user.setdefault(user, []).append((ts, line_no, item))

    users = {}
    vocab = {}
    for user, rows in per_user.items():
        if len(rows) < min_len:
            continue
        rows.sort(key=lambda r: (r[0], r[1]))
        seq = []
        for _, _, raw_item in rows:
            if raw_item not in vocab:
                vocab[raw_item] = len(vocab) + 1
            seq.append(vocab[raw_item])
        users[user] = seq
    if not users:
        raise EmptyDatasetError(f"{path}: no user has >= {min_len} interactions")
    return InteractionDataset(users=users, num_items=len(vocab), item_vocab=vocab)


def save_sequences(ds, path):
    with open(path, "w", encoding="utf-8") as f:
        for user, seq in ds.users.items():
            f.write(f"{user}\t{','.join(str(v) for v in seq)}\n")


def load_sequences(path):
    """Read a canonical sequence file. Item ids are taken as already dense;
    ``num_items`` is the max id seen. A repeated user id raises ParseError at its line."""
    users = {}
    for line_no, (user, seq) in _tsv_rows(path, 2, _sequence):
        if users.setdefault(user, seq) is not seq:
            raise ParseError(path, line_no, f"user id {user} repeated")
    if not users:
        raise EmptyDatasetError(f"{path}: no sequences")
    return InteractionDataset(users=users, num_items=max(max(seq) for seq in users.values()))


def save_vocab(ds, path):
    with open(path, "w", encoding="utf-8") as f:
        for raw_id, dense_id in ds.item_vocab.items():
            f.write(f"{raw_id}\t{dense_id}\n")


def load_vocab(path):
    """raw id -> dense id; an id repeated in either column raises ParseError at its line."""
    vocab, seen = {}, set()
    for line_no, (raw, dense) in _tsv_rows(path, 2, lambda r, d: (int(r), _positive_id("dense id", d))):
        for key in (("raw", raw), ("dense", dense)):
            if key in seen:
                raise ParseError(path, line_no, f"{key[0]} id {key[1]} repeated")
            seen.add(key)
        vocab[raw] = dense
    if not vocab:
        raise ValueError(f"{path}: empty vocabulary")
    return vocab


def leave_one_out_split(ds):
    """Last item -> test, penultimate -> validation, remainder -> train."""
    train, valid, test = {}, {}, {}
    for user, seq in ds.users.items():
        if len(seq) < 3:
            raise ValueError(f"user {user}: sequence length {len(seq)} < 3 cannot be split")
        train[user] = list(seq[:-2])
        valid[user] = seq[-2]
        test[user] = seq[-1]
    return SplitDataset(train=train, valid_target=valid, test_target=test)


def build_diffusion_training_set(ds, M, exclude_test=True):
    """Training pairs for the augmentor: (first M items, remaining items).

    Only sequences still longer than M contribute; with ``exclude_test`` the
    last (test) item is removed first, which can push borderline sequences
    out of the set.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    pairs = []
    for user, seq in ds.users.items():
        usable = seq[:-1] if exclude_test else seq
        if len(usable) > M:
            pairs.append((user, list(usable[:M]), list(usable[M:])))
    if not pairs:
        raise EmptyDiffusionSetError(M)
    return pairs


def group_of(n):
    """Length-based user group: short [3,5], medium (5,20], long (20, inf)."""
    if n <= 5:
        return GROUP_SHORT
    if n <= 20:
        return GROUP_MEDIUM
    return GROUP_LONG
