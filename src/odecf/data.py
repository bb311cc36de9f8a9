"""Interaction ingestion, k-core filtering, and chronological leave-one-out splits.

All functions here are pure: they take immutable-ish inputs and return new
objects, so they are safe to call from any thread. The k-core peel and the
train pairs work on integer arrays; only parsing and the split walk records.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised for unusable interaction data or ill-posed filtering requests."""


@dataclass(frozen=True)
class RawInteraction:
    user_key: str
    item_key: str
    timestamp: int


@dataclass(eq=False)
class InteractionLog:
    """Deduplicated (user, item) positives, each carrying its earliest timestamp."""

    interactions: list[RawInteraction]
    user_count: int
    item_count: int

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

    ``train[u]`` lists item ids in chronological order; ``validation[u]`` and
    ``test[u]`` hold the second-last and last interacted items of user ``u``.
    ``user_index`` / ``item_index`` map the original opaque keys to ids.
    """

    n_users: int
    n_items: int
    train: list[list[int]]
    validation: list[int]
    test: list[int]
    user_index: dict[str, int]
    item_index: dict[str, int]

    def n_train_interactions(self) -> int:
        return sum(len(items) for items in self.train)


def _column_positions(columns) -> tuple[int, int, int]:
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
    (user, item) pairs collapse to the earliest timestamp; lines that do not
    yield a non-negative integer timestamp and both keys count as malformed.
    """
    u_at, i_at, t_at = _column_positions(columns)
    width = max(u_at, i_at, t_at) + 1

    close_after = False
    if hasattr(source, "read") or (not isinstance(source, (str, Path)) and hasattr(source, "__iter__")):
        lines = source
    else:
        try:
            lines = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read interaction source {source!r}: {exc}") from exc
        close_after = True

    earliest: dict[tuple[str, str], int] = {}
    parsed = duplicates = malformed = 0
    try:
        for raw in lines:
            stripped = raw.strip()
            if not stripped:
                continue
            fields = stripped.split()
            if len(fields) < width:
                malformed += 1
                continue
            try:
                stamp = int(fields[t_at])
            except ValueError:
                malformed += 1
                continue
            if stamp < 0:
                malformed += 1
                continue
            parsed += 1
            pair = (fields[u_at], fields[i_at])
            if pair in earliest:
                duplicates += 1
                if stamp < earliest[pair]:
                    earliest[pair] = stamp
            else:
                earliest[pair] = stamp
    finally:
        if close_after:
            lines.close()

    if parsed == 0:
        raise DataError("zero valid lines in interaction source")

    interactions = [RawInteraction(u, i, t) for (u, i), t in earliest.items()]
    users = {r.user_key for r in interactions}
    items = {r.item_key for r in interactions}
    log = InteractionLog(interactions, len(users), len(items))
    return log, ParseStats(parsed=parsed, duplicates=duplicates, malformed=malformed)


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
    _, users = np.unique([r.user_key for r in records], return_inverse=True)
    _, items = np.unique([r.item_key for r in records], return_inverse=True)
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
    survivors = [records[j] for j in alive]
    return InteractionLog(survivors, np.unique(users[alive]).size, np.unique(items[alive]).size)


def leave_one_out_split(log: InteractionLog) -> SplitDataset:
    """Chronological per-user split: last item to test, second-last to validation.

    Timestamp ties break by item key (lexicographic), so splits are stable
    across runs. Users and items are re-indexed densely in sorted-key order.
    """
    per_user: dict[str, list[RawInteraction]] = defaultdict(list)
    for r in log.interactions:
        per_user[r.user_key].append(r)

    user_keys = sorted(per_user)
    for key in user_keys:
        n = len(per_user[key])
        if n < 3:
            raise DataError(
                f"user {key!r} has {n} interaction(s); leave-one-out needs at least 3"
            )

    item_keys = sorted({r.item_key for r in log.interactions})
    user_index = {key: idx for idx, key in enumerate(user_keys)}
    item_index = {key: idx for idx, key in enumerate(item_keys)}

    n_users = len(user_keys)
    train: list[list[int]] = [[] for _ in range(n_users)]
    validation = [0] * n_users
    test = [0] * n_users
    for key in user_keys:
        rows = sorted(per_user[key], key=lambda r: (r.timestamp, r.item_key))
        u = user_index[key]
        train[u] = [item_index[r.item_key] for r in rows[:-2]]
        validation[u] = item_index[rows[-2].item_key]
        test[u] = item_index[rows[-1].item_key]

    return SplitDataset(
        n_users=n_users,
        n_items=len(item_keys),
        train=train,
        validation=validation,
        test=test,
        user_index=user_index,
        item_index=item_index,
    )


def train_pairs(ds: SplitDataset) -> tuple[np.ndarray, np.ndarray]:
    """All (user, item) train pairs as parallel int64 arrays, user-major order."""
    users = np.repeat(np.arange(ds.n_users, dtype=np.int64), [len(t) for t in ds.train])
    items = np.fromiter(chain.from_iterable(ds.train), dtype=np.int64, count=users.size)
    return users, items


def write_split(ds: SplitDataset, outdir) -> None:
    """Write train/val/test text files plus the key->id maps."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "train.txt", "w", encoding="utf-8") as fh:
        for u in range(ds.n_users):
            for i in ds.train[u]:
                fh.write(f"{u} {i}\n")
    for name, column in (("val.txt", ds.validation), ("test.txt", ds.test)):
        with open(outdir / name, "w", encoding="utf-8") as fh:
            for u in range(ds.n_users):
                fh.write(f"{u} {column[u]}\n")
    for name, index in (("user_map.txt", ds.user_index), ("item_map.txt", ds.item_index)):
        with open(outdir / name, "w", encoding="utf-8") as fh:
            for key, idx in sorted(index.items(), key=lambda kv: kv[1]):
                fh.write(f"{key}\t{idx}\n")


def read_split(indir) -> SplitDataset:
    """Read back a directory produced by :func:`write_split`."""
    indir = Path(indir)

    def read_map(name):
        index = {}
        with open(indir / name, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                key, idx = line.rstrip("\n").split("\t")
                index[key] = int(idx)
        return index

    try:
        user_index = read_map("user_map.txt")
        item_index = read_map("item_map.txt")
        n_users = len(user_index)
        n_items = len(item_index)
        train: list[list[int]] = [[] for _ in range(n_users)]
        with open(indir / "train.txt", "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                u, i = (int(x) for x in line.split())
                train[u].append(i)
        columns = {}
        for name in ("val.txt", "test.txt"):
            column = [0] * n_users
            with open(indir / name, "r", encoding="utf-8") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    u, i = (int(x) for x in line.split())
                    column[u] = i
            columns[name] = column
    except OSError as exc:
        raise DataError(f"cannot read split directory {indir}: {exc}") from exc

    return SplitDataset(
        n_users=n_users,
        n_items=n_items,
        train=train,
        validation=columns["val.txt"],
        test=columns["test.txt"],
        user_index=user_index,
        item_index=item_index,
    )


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
    train: list[list[int]] = []
    validation: list[int] = []
    test: list[int] = []
    for _ in range(n_users):
        size = int(rng.integers(min_train, max_train + 1))
        chosen = rng.choice(n_items, size=size + 2, replace=False)
        train.append([int(x) for x in chosen[:size]])
        validation.append(int(chosen[size]))
        test.append(int(chosen[size + 1]))

    covered = set()
    for items in train:
        covered.update(items)
    for missing in sorted(set(range(n_items)) - covered):
        for u in rng.permutation(n_users):
            u = int(u)
            if missing not in train[u] and missing != validation[u] and missing != test[u]:
                train[u].append(missing)
                break
        else:
            raise DataError(f"cannot give item {missing} a train edge")

    return SplitDataset(
        n_users=n_users,
        n_items=n_items,
        train=train,
        validation=validation,
        test=test,
        user_index={f"u{u}": u for u in range(n_users)},
        item_index={f"i{i}": i for i in range(n_items)},
    )
