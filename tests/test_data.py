from collections import Counter, defaultdict

import numpy as np
import pytest

from conftest import traced_peak
from odecf.cli import write_split
from odecf.data import (
    DataError,
    k_core_filter,
    leave_one_out_split,
    parse_interactions,
    synthetic_split,
    train_pairs,
)


def parse_lines(lines, columns=("user", "item", "time")):
    return parse_interactions(iter(lines), columns)


class TestParseInteractions:
    def test_dedup_keeps_earliest(self):
        log, stats = parse_lines(["u1 i1 5", "u1 i1 9", "u2 i1 7"])
        assert len(log) == 2
        assert stats.parsed == 3 and stats.duplicates == 1 and stats.malformed == 0
        by_pair = {(r.user_key, r.item_key): r.timestamp for r in log.interactions}
        assert by_pair[("u1", "i1")] == 5
        assert by_pair[("u2", "i1")] == 7

    def test_empty_source_errors(self):
        with pytest.raises(DataError, match="zero valid lines"):
            parse_lines([])
        with pytest.raises(DataError, match="zero valid lines"):
            parse_lines(["", "   "])

    def test_malformed_lines_counted(self):
        log, stats = parse_lines(["u i 1", "too few", "u i2 notanint", "u i3 -4", "v i 2"])
        assert stats.parsed == 2
        assert stats.malformed == 3
        assert len(log) == 2

    def test_column_reordering_and_skip_fields(self):
        log, _ = parse_lines(["3 a u", "7 b v"], columns="time,item,user")
        assert {(r.user_key, r.item_key, r.timestamp) for r in log.interactions} == {
            ("u", "a", 3), ("v", "b", 7)}
        # extra trailing fields beyond the spec are ignored
        log, stats = parse_lines(["u a 5.0 99"], columns=("user", "item", "rating", "time"))
        assert stats.parsed == 1 and log.interactions[0].timestamp == 99

    def test_timestamps_at_the_int64_boundary(self):
        log, stats = parse_lines([f"u i {2**63 - 1}", "v i 3"])
        assert stats.parsed == 2 and log.interactions["timestamp"].tolist() == [2**63 - 1, 3]
        for stamp in (2**63, 10**29):
            with pytest.raises(DataError, match="does not fit in 64 bits"):
                parse_lines(["v i 3", f"u i {stamp}"])

    def test_bad_column_spec(self):
        with pytest.raises(DataError, match="missing"):
            parse_lines(["u i 1"], columns=("user", "item"))
        with pytest.raises(DataError, match="twice"):
            parse_lines(["u i 1"], columns=("user", "user", "item", "time"))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_interactions(tmp_path / "missing.txt")

    def test_path_input(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("u1 i1 1\nu1 i2 2\n")
        log, stats = parse_interactions(path)
        assert len(log) == 2 and stats.parsed == 2

    def test_traced_peak_stays_under_two_and_a_half_logs(self):
        # each buffer goes once read: 1.81 logs here and 1.88 on the benchmark's
        # wide-catalog seed-1 log; 3.49 and 3.57 if every buffer lives to the end
        lines = wide_dirty_log(20_000, seed=1)
        peak, held = traced_peak(parse_lines, lines)
        assert peak < 2.5 * held


def wide_dirty_log(n_lines, seed):
    """Lines over 2.5 times more items than users, a fifth of them repeating an
    earlier pair with another stamp and one in 25 without an integer stamp."""
    rng = np.random.default_rng(seed)
    users = rng.integers(n_lines // 20, size=n_lines).tolist()
    items = rng.integers(n_lines // 8, size=n_lines).tolist()
    stamps = rng.integers(10**9, 2 * 10**9, size=n_lines).tolist()
    lines = []
    for n, (u, i, t) in enumerate(zip(users, items, stamps)):
        if n % 5 == 4:
            u, i = users[n // 2], items[n // 2]
        lines.append(f"u{u} i{i} x" if n % 25 == 24 else f"u{u}\ti{i}  {t}")
    return lines


def make_log(pairs):
    return parse_lines([f"{u} {i} {t}" for u, i, t in pairs])[0]


def rows(log):
    return [(r.user_key, r.item_key, r.timestamp) for r in log.interactions]


class TestKCoreFilter:
    def test_k1_is_identity(self):
        log = make_log([("u1", "i1", 1), ("u2", "i1", 2), ("u2", "i2", 3)])
        out = k_core_filter(log, 1)
        assert [(r.user_key, r.item_key) for r in out.interactions] == [
            ("u1", "i1"), ("u2", "i1"), ("u2", "i2")]

    def test_chain_collapses_to_empty(self):
        # peeling by hand: u1 (deg 1) drops, i1 falls to deg 1 and drops,
        # u2 falls to deg 1 and drops, i2 follows; nothing survives
        log = make_log([("u1", "i1", 1), ("u2", "i1", 2), ("u2", "i2", 3)])
        with pytest.raises(DataError, match="removed every interaction"):
            k_core_filter(log, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_survivors_have_degree_k(self, seed):
        rng = np.random.default_rng(seed)
        pairs = {(f"u{rng.integers(30)}", f"i{rng.integers(25)}") for _ in range(400)}
        log = make_log([(u, i, 1) for u, i in sorted(pairs)])
        out = k_core_filter(log, 5)
        u_deg = Counter(r.user_key for r in out.interactions)
        i_deg = Counter(r.item_key for r in out.interactions)
        assert min(u_deg.values()) >= 5
        assert min(i_deg.values()) >= 5

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        pairs = {(f"u{rng.integers(20)}", f"i{rng.integers(15)}") for _ in range(200)}
        log = make_log([(u, i, 1) for u, i in sorted(pairs)])
        once = k_core_filter(log, 3)
        twice = k_core_filter(once, 3)
        assert [(r.user_key, r.item_key) for r in once.interactions] == [
            (r.user_key, r.item_key) for r in twice.interactions]

    def test_users_only_mode_keeps_thin_items(self):
        # i2 has degree 1 but survives when only users are peeled
        log = make_log([
            ("u1", "i1", 1), ("u1", "i2", 2),
            ("u2", "i1", 3), ("u2", "i3", 4),
            ("u3", "i1", 5), ("u3", "i3", 6),
        ])
        out = k_core_filter(log, 2, users_only=True)
        assert {r.item_key for r in out.interactions} == {"i1", "i2", "i3"}
        joint = k_core_filter(log, 2)
        assert {r.item_key for r in joint.interactions} == {"i1", "i3"}

    def test_bad_k(self):
        log = make_log([("u", "i", 1)])
        with pytest.raises(DataError):
            k_core_filter(log, 0)

    @pytest.mark.parametrize("users_only", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_maximal_core(self, seed, users_only):
        # the maximal k-core is the union of every node subset whose induced
        # subgraph gives each kept user (and, jointly, each kept item) degree >= k
        rng = np.random.default_rng(seed)
        n_users, n_items, k = 6, 5, 2 + seed % 2
        linked = rng.random((n_users, n_items)) < 0.55
        pairs = [(f"u{u}", f"i{i}", int(rng.integers(100)))
                 for u, i in zip(*np.nonzero(linked))]
        order = rng.permutation(len(pairs))
        log = make_log([pairs[j] for j in order])

        core = np.zeros_like(linked)
        all_items = np.ones(n_items, dtype=bool)
        for user_bits in range(1 << n_users):
            in_u = (user_bits >> np.arange(n_users)) & 1 == 1
            for item_bits in [None] if users_only else range(1 << n_items):
                in_i = all_items if users_only else (item_bits >> np.arange(n_items)) & 1 == 1
                sub = linked & in_u[:, None] & in_i[None, :]
                if (sub.sum(1)[in_u] < k).any():
                    continue
                if not users_only and (sub.sum(0)[in_i] < k).any():
                    continue
                core |= sub
        want = [(u, i, t) for u, i, t in rows(log) if core[int(u[1:]), int(i[1:])]]

        if not want:
            with pytest.raises(DataError, match="removed every interaction"):
                k_core_filter(log, k, users_only=users_only)
            return
        out = k_core_filter(log, k, users_only=users_only)
        assert rows(out) == want


class TestLeaveOneOutSplit:
    def test_three_interactions(self):
        log = make_log([("u", "a", 1), ("u", "b", 2), ("u", "c", 3)])
        ds = leave_one_out_split(log)
        a, b, c = ds.item_index["a"], ds.item_index["b"], ds.item_index["c"]
        assert ds.train[0] == [a]
        assert ds.validation[0] == b
        assert ds.test[0] == c

    def test_too_few_interactions_names_user(self):
        log = make_log([("solo", "a", 1), ("solo", "b", 2)])
        with pytest.raises(DataError, match="'solo'"):
            leave_one_out_split(log)

    def test_timestamp_tie_breaks_by_item_key(self):
        log = make_log([("u", "c", 1), ("u", "b", 7), ("u", "a", 7)])
        ds = leave_one_out_split(log)
        # tie at t=7: "a" sorts before "b", so "b" is chronologically last
        assert ds.test[0] == ds.item_index["b"]
        assert ds.validation[0] == ds.item_index["a"]

    def test_reconstruction_matches_log(self):
        rng = np.random.default_rng(4)
        pairs = []
        for u in range(15):
            items = rng.choice(30, size=rng.integers(3, 9), replace=False)
            for t, i in enumerate(items):
                pairs.append((f"u{u:02d}", f"i{i:02d}", int(rng.integers(0, 50))))
        log = make_log(pairs)
        ds = leave_one_out_split(log)
        rebuilt = set()
        inv_u = {v: k for k, v in ds.user_index.items()}
        inv_i = {v: k for k, v in ds.item_index.items()}
        for u in range(ds.n_users):
            for i in ds.train[u] + [ds.validation[u], ds.test[u]]:
                rebuilt.add((inv_u[u], inv_i[i]))
        assert rebuilt == {(u, i) for u, i, _ in pairs}
        for u in range(ds.n_users):
            parts = set(ds.train[u]) | {ds.validation[u], ds.test[u]}
            assert len(parts) == len(ds.train[u]) + 2  # pairwise disjoint

    def test_reindexing_is_contiguous_bijection(self):
        log = make_log([(f"u{u}", f"i{i}", u * 10 + i) for u in range(5) for i in range(4)])
        ds = leave_one_out_split(log)
        assert sorted(ds.user_index.values()) == list(range(ds.n_users))
        assert sorted(ds.item_index.values()) == list(range(ds.n_items))
        assert list(ds.user_index) == sorted(ds.user_index)  # sorted-key order

    def test_chronological_order_in_train(self):
        log = make_log([("u", "d", 4), ("u", "a", 3), ("u", "c", 1), ("u", "b", 2), ("u", "e", 5)])
        ds = leave_one_out_split(log)
        names = [k for k, v in sorted(ds.item_index.items(), key=lambda kv: kv[1])]
        assert [names[i] for i in ds.train[0]] == ["c", "b", "a"]


OFFICE_ENV = "ODECF_DATA_OFFICE"


@pytest.mark.skipif(OFFICE_ENV not in __import__("os").environ,
                    reason=f"set {OFFICE_ENV} to the Amazon Office review file to "
                           "check the reference corpus statistics")
def test_office_reference_statistics():
    import os

    log, _ = parse_interactions(os.environ[OFFICE_ENV],
                                columns=os.environ.get("ODECF_DATA_COLUMNS",
                                                       "user,item,time"))
    ds = leave_one_out_split(k_core_filter(log, 5))
    assert ds.n_train_interactions() == 43448
    assert ds.n_users == 4905  # one validation and one test interaction per user


class TestSplitIO:
    def test_round_trip(self, tmp_path):
        ds = synthetic_split(n_users=7, n_items=9, seed=5)
        write_split(ds, tmp_path)
        for name in ("train.txt", "val.txt", "test.txt", "user_map.txt", "item_map.txt"):
            assert (tmp_path / name).exists()
        lines = {name: (tmp_path / name).read_text().splitlines()
                 for name in ("train.txt", "val.txt", "item_map.txt")}
        assert len(lines["train.txt"]) == ds.n_train_interactions()
        assert len(lines["val.txt"]) == ds.n_users and len(lines["item_map.txt"]) == ds.n_items

    def test_train_pairs_layout(self):
        ds = synthetic_split(n_users=4, n_items=7, seed=1)
        users, items = train_pairs(ds)
        assert users.dtype == np.int64 and len(users) == len(items)
        flat = [(u, i) for u in range(ds.n_users) for i in ds.train[u]]
        assert list(zip(users.tolist(), items.tolist())) == flat

    def test_files_match_the_line_writer(self, tmp_path):
        # the text format of the per-line writer the array writer replaced
        def write_lines(ds, outdir):
            outdir.mkdir()
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

        log = make_log([(f"u{u}", f"i{(u * 7 + j) % 23}", j) for u in range(12) for j in range(5)])
        for ds in (synthetic_split(n_users=30, n_items=25, seed=3), leave_one_out_split(log)):
            want, got = tmp_path / f"want{ds.n_users}", tmp_path / f"got{ds.n_users}"
            write_lines(ds, want)
            write_split(ds, got)
            for name in ("train.txt", "val.txt", "test.txt", "user_map.txt", "item_map.txt"):
                assert (got / name).read_bytes() == (want / name).read_bytes(), name


def list_synthetic_split(n_users, n_items, seed, min_train, max_train):
    """The per-user list construction the array version of ``synthetic_split`` replaced."""
    rng = np.random.default_rng(seed)
    train, validation, test = [], [], []
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
    return train, validation, test


@pytest.mark.parametrize("shape", [(6, 8, 11, 3, 4), (30, 60, 2, 1, 2), (12, 10, 7, 3, 6),
                                   (40, 200, 5, 2, 3)])
def test_synthetic_split_keeps_its_draws(shape):
    n_users, n_items, seed, min_train, max_train = shape
    ds = synthetic_split(n_users, n_items, seed, min_train, max_train)
    train, validation, test = list_synthetic_split(*shape)
    assert ds.train == train
    assert ds.validation.tolist() == validation and ds.test.tolist() == test


def reference_ingest(lines, columns, k, users_only):
    """Pure-Python parse -> k-core -> split with dicts and ``sorted``, record by record.

    Returns (parse counts, parsed rows, k-cored rows, split) or ``None`` for
    the rows and split when the k-core is empty.
    """
    u_at, i_at, t_at = (columns.index(name) for name in ("user", "item", "time"))
    width = max(u_at, i_at, t_at) + 1
    earliest = {}
    parsed = duplicates = malformed = 0
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
            earliest[pair] = min(earliest[pair], stamp)
        else:
            earliest[pair] = stamp
    counts = (parsed, duplicates, malformed)
    parsed_rows = [(u, i, t) for (u, i), t in earliest.items()]

    kept = parsed_rows
    while True:
        du = Counter(u for u, _, _ in kept)
        di = Counter(i for _, i, _ in kept)
        survivors = [r for r in kept if du[r[0]] >= k and (users_only or di[r[1]] >= k)]
        if len(survivors) == len(kept):
            break
        kept = survivors
    if not kept:
        return counts, parsed_rows, None, None

    per_user = defaultdict(list)
    for r in kept:
        per_user[r[0]].append(r)
    user_keys = sorted(per_user)
    item_keys = sorted({i for _, i, _ in kept})
    item_index = {key: n for n, key in enumerate(item_keys)}
    train, validation, test = [], [], []
    for key in user_keys:
        ordered = [item_index[i] for _, i, _ in sorted(per_user[key], key=lambda r: (r[2], r[1]))]
        train.append(ordered[:-2])
        validation.append(ordered[-2])
        test.append(ordered[-1])
    split = (user_keys, item_keys, train, validation, test)
    return counts, parsed_rows, kept, split


# keys whose string order differs from their numeric or code-point-naive order,
# then a tail of rare keys that the k-core peels
USER_KEYS = ["u1", "u2", "u9", "u10", "u11", "u100", "U3", "ü", "ユーザ", "z\u00e9", "ze",
             *(f"u{n}" for n in range(12, 40))]
ITEM_KEYS = ["i1", "i2", "i9", "i10", "i20", "ï", "項目", "é", "e\u0301", "a", "b",
             *(f"i{n}" for n in range(30, 60))]


def skewed(rng, keys):
    weights = 1.0 / np.arange(1, len(keys) + 1)
    return keys[int(rng.choice(len(keys), p=weights / weights.sum()))]


def dirty_log(seed):
    """A seeded log with every kind of line the parser must treat like the reference."""
    rng = np.random.default_rng(seed)
    columns = ("user", "item", "rating", "time") if seed % 2 else ("user", "item", "time")

    def line(user, item, stamp):
        fields = {"user": user, "item": item, "time": stamp, "rating": f"{rng.integers(1, 6)}.0"}
        out = [fields[c] for c in columns] + ["extra"] * int(rng.integers(0, 3))
        return rng.choice([" ", "\t", "  ", "\u00a0"]).join(out)

    lines, pairs = [], []
    for _ in range(int(rng.integers(120, 200))):
        user, item = skewed(rng, USER_KEYS), skewed(rng, ITEM_KEYS)
        stamp = str(rng.integers(0, 12))  # a narrow range makes equal stamps common
        pairs.append((user, item, int(stamp)))
        roll = rng.random()
        if roll < 0.05:
            stamp = str(rng.choice(["+5", "1_000", "-3", "abc", "7.5", ""]))
        lines.append(line(user, item, stamp) if stamp else f"{user} {item}")
        if roll > 0.9 and pairs:  # a later duplicate, often with an earlier stamp
            u, i, t = pairs[int(rng.integers(len(pairs)))]
            lines.append(line(u, i, str(max(0, t - int(rng.integers(0, 4))))))
        if roll > 0.97:
            lines.append(str(rng.choice(["", "   ", "\t \n", "short"])))
    return lines, columns


class TestAgainstReferenceIngest:
    @pytest.mark.parametrize("users_only", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_parse_kcore_split_match(self, seed, users_only):
        lines, columns = dirty_log(seed)
        counts, parsed_rows, kept_rows, split = reference_ingest(lines, columns, 3, users_only)

        log, stats = parse_interactions(iter(lines), columns)
        assert (stats.parsed, stats.duplicates, stats.malformed) == counts
        assert rows(log) == parsed_rows
        if kept_rows is None:
            with pytest.raises(DataError, match="removed every interaction"):
                k_core_filter(log, 3, users_only=users_only)
            return
        kept = k_core_filter(log, 3, users_only=users_only)
        assert rows(kept) == kept_rows

        ds = leave_one_out_split(kept)
        user_keys, item_keys, train, validation, test = split
        assert list(ds.user_index.items()) == [(key, n) for n, key in enumerate(user_keys)]
        assert list(ds.item_index.items()) == [(key, n) for n, key in enumerate(item_keys)]
        assert all(type(key) is str for key in [*ds.user_index, *ds.item_index])
        assert ds.train == train
        assert ds.validation.tolist() == validation
        assert ds.test.tolist() == test

    def test_logs_hold_every_dirty_case(self):
        text = "\n".join(line for seed in range(20) for line in dirty_log(seed)[0])
        for needle in ("+5", "1_000", "-3", "abc", "u9", "u10", "ユーザ", "\u00a0", "extra"):
            assert needle in text
        assert any(not line.strip() for seed in range(20) for line in dirty_log(seed)[0])
