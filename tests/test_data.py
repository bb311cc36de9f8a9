import numpy as np
import pytest

from odecf.data import (
    DataError,
    InteractionLog,
    RawInteraction,
    k_core_filter,
    leave_one_out_split,
    parse_interactions,
    read_split,
    synthetic_split,
    train_pairs,
    write_split,
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
        assert log.user_count == 2 and log.item_count == 1

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


def make_log(pairs):
    inter = [RawInteraction(u, i, t) for u, i, t in pairs]
    return InteractionLog(inter, len({p[0] for p in pairs}), len({p[1] for p in pairs}))


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
        from collections import Counter
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
        want = [r for r in log.interactions
                if core[int(r.user_key[1:]), int(r.item_key[1:])]]

        if not want:
            with pytest.raises(DataError, match="removed every interaction"):
                k_core_filter(log, k, users_only=users_only)
            return
        out = k_core_filter(log, k, users_only=users_only)
        assert out.interactions == want
        assert out.user_count == len({r.user_key for r in want})
        assert out.item_count == len({r.item_key for r in want})


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
        back = read_split(tmp_path)
        assert back.n_users == ds.n_users and back.n_items == ds.n_items
        assert back.train == ds.train
        assert back.validation == ds.validation
        assert back.test == ds.test
        assert back.user_index == ds.user_index

    def test_train_pairs_layout(self):
        ds = synthetic_split(n_users=4, n_items=7, seed=1)
        users, items = train_pairs(ds)
        assert users.dtype == np.int64 and len(users) == len(items)
        flat = [(u, i) for u in range(ds.n_users) for i in ds.train[u]]
        assert list(zip(users.tolist(), items.tolist())) == flat
