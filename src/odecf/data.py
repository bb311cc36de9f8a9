"""Interaction ingestion, k-core filtering, and chronological leave-one-out splits.

Nothing here writes a file, and only ``parse_interactions`` reads one, its
input. The other functions are pure: they take immutable-ish inputs and return
new objects, so they are safe to call from any thread. Data travels as integer
columns: parsing codes each key once in a dict, and the dedupe, the k-core
peel, the split and the train pairs are array operations on those codes.
"""

from __future__ import annotations

from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised for unusable interaction data or ill-posed filtering requests."""


_RECORD = np.dtype([("user", np.int64), ("item", np.int64), ("user_key", object),
                    ("item_key", object), ("timestamp", np.int64)])


@dataclass(eq=False)
class InteractionLog:
    """Deduplicated (user, item) positives, each carrying its earliest timestamp.

    ``interactions`` is a record array with the columns ``user``, ``item``
    (integer codes, one per key), ``user_key``, ``item_key`` (str) and
    ``timestamp``; read codes as ``rec["item"]``, ``rec.item`` is a method.
    """

    interactions: np.recarray

    def __len__(self) -> int:
        return len(self.interactions)


@dataclass(frozen=True)
class ParseStats:
    parsed: int
    duplicates: int
    malformed: int


@dataclass(eq=False)
class SplitDataset:
    """Train/validation/test partitions over dense contiguous ids.

    User ``u``'s train items, in chronological order, are
    ``train_items[train_indptr[u]:train_indptr[u + 1]]``; ``validation[u]`` and
    ``test[u]`` hold the second-last and last interacted items of user ``u``.
    ``user_index`` / ``item_index`` map the original opaque keys to ids.
    """

    n_users: int
    n_items: int
    train_indptr: np.ndarray
    train_items: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    user_index: dict[str, int]
    item_index: dict[str, int]

    @cached_property
    def train(self) -> list[list[int]]:
        """Per-user train lists built from the CSR arrays, for inspection only."""
        items, bounds = self.train_items.tolist(), self.train_indptr.tolist()
        return [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    @cached_property
    def train_keys(self) -> np.ndarray:
        """Sorted distinct ``user * n_items + item`` keys of the train pairs."""
        users, items = train_pairs(self)
        return np.unique(users * self.n_items + items)

    def n_train_interactions(self) -> int:
        return int(self.train_indptr[-1])


def column_positions(columns) -> tuple[int, int, int]:
    """Field indices of user, item and time; :class:`DataError` if one is missing or repeated."""
    if isinstance(columns, str):
        names = [c for c in columns.replace(",", " ").split() if c]
    else:
        names = list(columns)
    pos: dict[str, int] = {}
    for idx, name in enumerate(names):
        if name in ("user", "item", "time"):
            if name in pos:
                raise DataError(f"column spec names {name!r} twice: {names}")
            pos[name] = idx
    missing = sorted({"user", "item", "time"} - pos.keys())
    if missing:
        raise DataError(f"column spec {names} is missing {missing}")
    return pos["user"], pos["item"], pos["time"]


def parse_interactions(source, columns=("user", "item", "time")) -> tuple[InteractionLog, ParseStats]:
    """Read whitespace-separated interaction lines into a deduplicated log.

    ``source`` is a path or an iterable of text lines. ``columns`` names the
    field order; it must mention ``user``, ``item`` and ``time`` once each,
    any other entry (e.g. ``rating``) marks a field to skip. Duplicate
    (user, item) pairs collapse to the earliest timestamp, in the order the
    pairs were first seen; lines that do not yield a non-negative integer
    timestamp and both keys count as malformed.
    """
    u_at, i_at, t_at = column_positions(columns)
    width = max(u_at, i_at, t_at) + 1

    if hasattr(source, "read") or (not isinstance(source, (str, Path)) and hasattr(source, "__iter__")):
        opened = nullcontext(source)  # the caller's to close
    else:
        try:
            opened = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read interaction source {source!r}: {exc}") from exc

    user_codes: dict[str, int] = {}
    item_codes: dict[str, int] = {}
    users, items, stamps = [], [], array("q")  # the dicts own the code ints; a stamp is 8 bytes here
    malformed = 0
    with opened as lines:
        for raw in lines:
            fields = raw.split()
            if len(fields) < width:
                malformed += bool(fields)  # a blank line is skipped, not malformed
                continue
            try:
                stamp = int(fields[t_at])
            except ValueError:
                malformed += 1
                continue
            if stamp < 0:
                malformed += 1
                continue
            try:
                stamps.append(stamp)
            except OverflowError:
                raise DataError("a timestamp does not fit in 64 bits") from None
            users.append(user_codes.setdefault(fields[u_at], len(user_codes)))
            items.append(item_codes.setdefault(fields[i_at], len(item_codes)))

    parsed = len(stamps)
    if parsed == 0:
        raise DataError("zero valid lines in interaction source")
    t = np.frombuffer(stamps, dtype=np.int64)
    u, i = (np.fromiter(codes, dtype=np.int64, count=parsed) for codes in (users, items))

    # A stable sort by pair keeps each pair's lines in file order, so each run
    # of equal pairs starts at the line where the pair was first seen.
    key = u * len(item_codes) + i
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(key[order]) != 0])
    first = order[starts]
    by_line = np.argsort(first)
    line, earliest = first[by_line], np.minimum.reduceat(t[order], starts)[by_line]

    u, i = u[line], i[line]
    rows = np.zeros(line.size, dtype=_RECORD).view(np.recarray)  # np.empty is slow for object fields
    for name, column in (("user", u), ("item", i), ("timestamp", earliest),
                         ("user_key", np.array(list(user_codes), dtype=object)[u]),
                         ("item_key", np.array(list(item_codes), dtype=object)[i])):
        rows[name] = column
    stats = ParseStats(parsed=parsed, duplicates=parsed - line.size, malformed=malformed)
    return InteractionLog(rows), stats


def k_core_filter(log: InteractionLog, k: int, users_only: bool = False) -> InteractionLog:
    """Peel users/items with degree < k until a fixpoint.

    Each round drops, all at once, every interaction whose user (or, unless
    ``users_only`` is set, whose item) has fewer than k live interactions.
    Only nodes outside every k-core are ever dropped, so the fixpoint is the
    unique maximal k-core. Survivors keep their log order.
    """
    if k < 1:
        raise DataError(f"k-core threshold must be >= 1, got {k}")

    records = log.interactions
    users, items = records["user"], records["item"]
    alive = np.arange(len(records))
    while True:
        u, i = users[alive], items[alive]
        keep = np.bincount(u)[u] >= k
        if not users_only:
            keep &= np.bincount(i)[i] >= k
        if keep.all():
            break
        alive = alive[keep]

    if not alive.size:
        raise DataError(f"{k}-core filtering removed every interaction")
    return InteractionLog(records[alive])


def _dense_ids(codes: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Ids in sorted-key order for each row's code, and the sorted keys."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(keys[first])
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inverse], keys[first[order]].tolist()


def leave_one_out_split(log: InteractionLog) -> SplitDataset:
    """Chronological per-user split: last item to test, second-last to validation.

    Timestamp ties break by item key (lexicographic), so splits are stable
    across runs. Users and items are re-indexed densely in sorted-key order.
    """
    records = log.interactions
    user_id, user_keys = _dense_ids(records["user"], records["user_key"])
    item_id, item_keys = _dense_ids(records["item"], records["item_key"])
    n_users = len(user_keys)
    counts = np.bincount(user_id, minlength=n_users)
    if (counts < 3).any():
        u = int(np.argmax(counts < 3))
        raise DataError(f"user {user_keys[u]!r} has {counts[u]} interaction(s); "
                        "leave-one-out needs at least 3")

    # dense item ids follow key order, so they break time ties like the keys do
    order = np.lexsort((item_id, records["timestamp"], user_id))
    items = item_id[order]
    last = np.cumsum(counts) - 1
    in_train = np.ones(items.size, dtype=bool)
    in_train[np.r_[last - 1, last]] = False
    return SplitDataset(
        n_users=n_users,
        n_items=len(item_keys),
        train_indptr=np.r_[0, np.cumsum(counts - 2)],
        train_items=items[in_train],
        validation=items[last - 1],
        test=items[last],
        user_index=dict(zip(user_keys, range(n_users))),
        item_index=dict(zip(item_keys, range(len(item_keys)))),
    )


def train_pairs(ds: SplitDataset) -> tuple[np.ndarray, np.ndarray]:
    """All (user, item) train pairs as parallel int64 arrays, user-major order."""
    users = np.repeat(np.arange(ds.n_users, dtype=np.int64), np.diff(ds.train_indptr))
    return users, ds.train_items


def _group_by_user(users: np.ndarray, items: np.ndarray, n_users: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, items)`` of the pairs, keeping their order within each user."""
    indptr = np.r_[0, np.cumsum(np.bincount(users, minlength=n_users))]
    return indptr, items[np.argsort(users, kind="stable")]


def synthetic_split(n_users: int, n_items: int, seed: int, min_train: int = 3,
                    max_train: int | None = None) -> SplitDataset:
    """Random SplitDataset for demos, tests and gradient checks.

    Every user gets ``min_train``..``max_train`` train items plus distinct
    validation/test items; every item is guaranteed at least one train edge so
    the normalized adjacency is well defined.
    """
    if max_train is None:
        max_train = min(n_items - 2, min_train + 3)
    if not (1 <= min_train <= max_train <= n_items - 2):
        raise DataError("infeasible synthetic split sizes")
    rng = np.random.default_rng(seed)
    users, items = [], []
    validation, test = np.empty((2, n_users), dtype=np.int64)
    for u in range(n_users):
        size = int(rng.integers(min_train, max_train + 1))
        chosen = rng.choice(n_items, size=size + 2, replace=False)
        users.append(np.full(size, u))
        items.append(chosen[:size])
        validation[u], test[u] = chosen[size], chosen[size + 1]

    # An uncovered item is in no train list, so any user whose held-out items
    # differ from it can take it as a train edge.
    for missing in np.setdiff1d(np.arange(n_items), np.concatenate(items)):
        perm = rng.permutation(n_users)
        free = perm[(validation[perm] != missing) & (test[perm] != missing)]
        if not free.size:
            raise DataError(f"cannot give item {missing} a train edge")
        users.append(free[:1])
        items.append(np.array([missing]))

    indptr, train_items = _group_by_user(np.concatenate(users), np.concatenate(items), n_users)
    return SplitDataset(
        n_users=n_users,
        n_items=n_items,
        train_indptr=indptr,
        train_items=train_items,
        validation=validation,
        test=test,
        user_index={f"u{u}": u for u in range(n_users)},
        item_index={f"i{i}": i for i in range(n_items)},
    )
