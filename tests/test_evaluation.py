import tracemalloc

import numpy as np
import pytest

import odecf.evaluation

from odecf.data import synthetic_split
from odecf.evaluation import (
    EvalError,
    MetricsReport,
    RankResult,
    evaluate,
    ndcg_at_n,
    rank_all,
    rank_heldout,
    recall_at_n,
    write_metrics_csv,
)

from test_graph import simple_ds


def brute_force_rank(scores, target, exclusions):
    """Full-sort oracle: order candidates by (score desc, id asc), find target."""
    order = sorted(
        (i for i in range(len(scores)) if i not in exclusions),
        key=lambda i: (-scores[i], i),
    )
    return order.index(target) + 1


def embedding_for_scores(scores_by_user, n_users):
    """Embeddings whose inner products reproduce the given score matrix.

    User u gets basis vector e_u; item i gets the column of scores, so
    <fe[u], fe[n+i]> = scores[u, i] exactly.
    """
    scores = np.asarray(scores_by_user, dtype=np.float64)
    n_items = scores.shape[1]
    fe = np.zeros((n_users + n_items, n_users))
    fe[:n_users] = np.eye(n_users)
    fe[n_users:] = scores.T
    return fe


def lexsort_ranks(fe, ds, mode):
    """Ranks from one np.lexsort of the float64 score matrix: score descending,
    then item id ascending, excluded items last."""
    n = ds.n_users
    with np.errstate(over="ignore"):
        scores = fe[:n] @ fe[n:].T
    excluded = np.zeros(scores.shape, dtype=bool)
    excluded[np.repeat(np.arange(n), np.diff(ds.train_indptr)), ds.train_items] = True
    if mode == "test":
        excluded[np.arange(n), ds.validation] = True
    ids = np.broadcast_to(np.arange(ds.n_items), scores.shape)
    order = np.lexsort((ids, -scores, excluded), axis=-1)
    targets = ds.validation if mode == "validation" else ds.test
    return (1 + np.argmax(order == targets[:, None], axis=1)).tolist()


class TestRankHeldout:
    def test_unique_maximum_ranks_first(self):
        ds = simple_ds([[1]], 4, validation=[2], test=[3])
        fe = embedding_for_scores([[0.1, 0.0, 0.9, 0.2]], 1)
        assert rank_heldout(fe, ds, 0, 2, {1}).rank == 1

    def test_all_equal_scores_lowest_id_wins(self):
        ds = simple_ds([[3]], 5, validation=[0], test=[1])
        fe = embedding_for_scores([[0.5] * 5], 1)
        assert rank_heldout(fe, ds, 0, 0, {3}).rank == 1
        assert rank_heldout(fe, ds, 0, 2, {3}).rank == 3  # ids 0,1 tie above

    def test_excluded_target_rejected(self):
        ds = simple_ds([[0]], 3, validation=[1], test=[2])
        fe = np.zeros((4, 2))
        with pytest.raises(EvalError, match="excluded"):
            rank_heldout(fe, ds, 0, 0, {0})

    def test_out_of_range_ids(self):
        ds = simple_ds([[0]], 3, validation=[1], test=[2])
        fe = np.zeros((4, 2))
        with pytest.raises(EvalError):
            rank_heldout(fe, ds, 5, 1, set())
        with pytest.raises(EvalError):
            rank_heldout(fe, ds, 0, 9, set())

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_exclusions_rejected(self, bad):
        # item 4 outscores the target; a wrapped -1 would silently exclude it
        ds = simple_ds([[0], [0], [0]], 5, validation=[1, 1, 1], test=[2, 2, 2])
        fe = embedding_for_scores([[0.0, 0.5, 0.1, 0.2, 0.9]] * 3, 3)
        assert rank_heldout(fe, ds, 0, 1, {0}).rank == 2
        with pytest.raises(EvalError, match=f"excluded item id {bad} out of range"):
            rank_heldout(fe, ds, 0, 1, {0, bad})

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        n_items = 50
        ds = simple_ds([[0]], n_items, validation=[1], test=[2])
        for _ in range(1000):
            scores = rng.normal(size=n_items)
            if rng.random() < 0.3:  # force ties sometimes
                scores = np.round(scores, 1)
            excl = set(int(x) for x in rng.choice(n_items, size=5, replace=False))
            candidates = [i for i in range(n_items) if i not in excl]
            target = int(rng.choice(candidates))
            fe = embedding_for_scores([scores], 1)
            got = rank_heldout(fe, ds, 0, target, excl).rank
            assert got == brute_force_rank(scores, target, excl)


def per_user_recall(ranks, n):
    """The per-user recall the array reduction replaced, as the reference."""
    return sum(1 for r in ranks if r <= n) / len(ranks)


def per_user_ndcg(ranks, n):
    """The per-user NDCG the array reduction replaced, summed in user order."""
    total = sum(1.0 / np.log2(r + 1.0) for r in ranks if r <= n)
    return float(total / len(ranks))


class TestAggregates:
    @pytest.mark.parametrize("n", [1, 5, 20, 100])
    def test_reductions_equal_the_per_user_formulas(self, n):
        rng = np.random.default_rng(n)
        for trial in range(50):
            ranks = rng.integers(1, 3 * n + 2, int(rng.integers(1, 3000)))
            ranks[rng.integers(0, len(ranks), 3)] = n
            ranks[rng.integers(0, len(ranks), 3)] = n + 1
            users = ranks.tolist()
            assert recall_at_n(ranks, n) == per_user_recall(users, n)
            assert ndcg_at_n(ranks, n) == per_user_ndcg(users, n)
        assert recall_at_n(np.array([n, n + 1]), n) == 0.5
        assert ndcg_at_n(np.array([n + 1]), n) == 0.0

    def test_recall_examples(self):
        assert recall_at_n(np.array([3, 25]), 20) == 0.5
        assert recall_at_n(np.ones(9, dtype=np.int64), 20) == 1.0

    def test_recall_at_full_catalog_is_one(self):
        rng = np.random.default_rng(1)
        assert recall_at_n(rng.integers(1, 41, 30), 40) == 1.0

    def test_ndcg_examples(self):
        assert ndcg_at_n(np.array([1]), 20) == pytest.approx(1.0)
        assert ndcg_at_n(np.array([3]), 20) == pytest.approx(0.5)
        assert ndcg_at_n(np.array([1, 3]), 20) == pytest.approx(0.75)

    def test_ndcg_never_exceeds_recall(self):
        rng = np.random.default_rng(2)
        ranks = rng.integers(1, 60, 50)
        for n in (1, 5, 20, 59):
            assert ndcg_at_n(ranks, n) <= recall_at_n(ranks, n) + 1e-15

    def test_empty_and_bad_n(self):
        for metric in (recall_at_n, ndcg_at_n):
            for bad in ([], np.array([], dtype=np.int64)):
                with pytest.raises(EvalError):
                    metric(bad, 10)
            for n in (0, -1):
                with pytest.raises(EvalError):
                    metric(np.array([1]), n)
            with pytest.raises(EvalError):  # (user, rank) pairs are not a rank array
                metric([RankResult(0, 1), RankResult(1, 3)], 5)

    def test_uniform_scores_hit_rate(self):
        # with i.i.d. scores the held-out rank is uniform on 1..M, so
        # recall@N concentrates around N/M
        rng = np.random.default_rng(3)
        n_users, n_items, n = 4000, 40, 8
        ranks = np.array([rng.integers(1, n_items + 1) for u in range(n_users)])
        p = n / n_items
        sigma = np.sqrt(p * (1 - p) / n_users)
        assert abs(recall_at_n(ranks, n) - p) < 5 * sigma


class TestEvaluate:
    def test_perfect_oracle_embeddings(self):
        # validation item scored above the test item, which is itself above the
        # rest: each mode's target tops its own candidate list (the validation
        # item is excluded from test-mode candidates)
        ds = synthetic_split(n_users=5, n_items=9, seed=4)
        scores = np.zeros((ds.n_users, ds.n_items))
        for u in range(ds.n_users):
            scores[u, ds.validation[u]] = 2.0
            scores[u, ds.test[u]] = 1.0
        fe = embedding_for_scores(scores, ds.n_users)
        for mode in ("validation", "test"):
            report = evaluate(fe, ds, mode, [1, 20])
            assert report.recall == [1.0, 1.0]
            assert report.ndcg == [1.0, 1.0]
            assert report.users_evaluated == ds.n_users

    def test_matches_scripted_oracle(self):
        # independent per-user reimplementation on a 20-user instance
        ds = synthetic_split(n_users=20, n_items=15, seed=5)
        rng = np.random.default_rng(6)
        fe = rng.normal(size=(ds.n_users + ds.n_items, 6))
        scores = fe[: ds.n_users] @ fe[ds.n_users :].T
        for mode in ("validation", "test"):
            targets = ds.validation if mode == "validation" else ds.test
            oracle_ranks = []
            for u in range(ds.n_users):
                excl = set(ds.train[u])
                if mode == "test":
                    excl.add(ds.validation[u])
                oracle_ranks.append(brute_force_rank(scores[u], targets[u], excl))
            report = evaluate(fe, ds, mode, [5, 20])
            for n, recall, ndcg in zip(report.n_values, report.recall, report.ndcg):
                want_recall = np.mean([r <= n for r in oracle_ranks])
                want_ndcg = np.mean([1 / np.log2(r + 1) if r <= n else 0.0
                                     for r in oracle_ranks])
                assert recall == pytest.approx(want_recall, abs=1e-12)
                assert ndcg == pytest.approx(want_ndcg, abs=1e-12)

    def test_rank_all_consistent_with_rank_heldout(self):
        ds = synthetic_split(n_users=12, n_items=10, seed=7)
        fe = np.random.default_rng(8).normal(size=(ds.n_users + ds.n_items, 4))
        results = rank_all(fe, ds, "test")
        for r in results:
            excl = set(ds.train[r.user]) | {ds.validation[r.user]}
            assert r.rank == rank_heldout(fe, ds, r.user, ds.test[r.user], excl).rank

    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["validation", "test"])
    def test_small_blocks_match_rank_heldout_on_exact_ties(self, monkeypatch, height, mode):
        # integer embeddings give exact products and many tied scores in every
        # row, so ties fall on both sides of each block boundary
        ds = synthetic_split(n_users=11, n_items=10, seed=12)
        monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * ds.n_items * height)
        fe = np.random.default_rng(13).integers(-1, 2, size=(ds.n_users + ds.n_items, 2))
        fe = fe.astype(np.float64)
        targets = ds.validation if mode == "validation" else ds.test
        results = rank_all(fe, ds, mode)
        assert [r.user for r in results] == list(range(ds.n_users))
        for r in results:
            excl = set(ds.train[r.user]) | ({ds.validation[r.user]} if mode == "test" else set())
            assert r.rank == rank_heldout(fe, ds, r.user, targets[r.user], excl).rank

    @pytest.mark.parametrize("mode", ["validation", "test"])
    def test_default_blocks_match_lexsort_oracle(self, mode):
        # the default budget gives blocks of 209, 209 and 82 users; integer
        # embeddings give exact products, tied on both sides of most targets
        ds = synthetic_split(n_users=500, n_items=5000, seed=16)
        height = odecf.evaluation._BLOCK_BYTES // (8 * ds.n_items)
        assert ds.n_users > 2 * height and ds.n_users % height
        n = ds.n_users
        fe = np.random.default_rng(17).integers(-2, 3, size=(n + ds.n_items, 3)).astype(np.float64)
        fe[0] = 0.0  # every candidate ties with the target
        fe[1] = [1e308, 0.0, 0.0]  # items with a first coordinate of +-2 score +-inf
        fe[n + ds.validation[1], 0] = -2.0  # -inf, as some candidates and excluded items score
        fe[n + ds.test[1], 0] = 2.0
        with np.errstate(over="ignore"):
            scores = fe[:n] @ fe[n:].T
        assert np.isinf(scores[1]).any() and not np.isnan(scores).any()
        excluded = np.zeros(scores.shape, dtype=bool)
        excluded[np.repeat(np.arange(n), np.diff(ds.train_indptr)), ds.train_items] = True
        if mode == "test":
            excluded[np.arange(n), ds.validation] = True
        ids = np.broadcast_to(np.arange(ds.n_items), scores.shape)
        order = np.lexsort((ids, -scores, excluded), axis=-1)  # excluded last
        targets = ds.validation if mode == "validation" else ds.test
        want = 1 + np.argmax(order == targets[:, None], axis=1)
        assert [r.rank for r in rank_all(fe, ds, mode)] == want.tolist()

    @staticmethod
    def rank_all_peak_bytes():
        ds = synthetic_split(n_users=1500, n_items=5000, seed=14)
        fe = np.random.default_rng(15).normal(size=(ds.n_users + ds.n_items, 8))
        tracemalloc.start()
        try:
            rank_all(fe, ds, "test")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_score_blocks_stay_within_budget(self):
        assert self.rank_all_peak_bytes() < 4 * odecf.evaluation._BLOCK_BYTES

    def test_one_score_block_alive_at_a_time(self):
        # the score buffer is the budget and its mask an eighth of it
        assert self.rank_all_peak_bytes() < 1.5 * odecf.evaluation._BLOCK_BYTES

    def test_evaluate_builds_no_rank_results(self, monkeypatch):
        built = []

        class Counted(RankResult):
            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(odecf.evaluation, "RankResult", Counted)
        ds = synthetic_split(n_users=11, n_items=10, seed=12)
        monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * ds.n_items * 3)
        fe = np.random.default_rng(13).normal(size=(ds.n_users + ds.n_items, 4))
        for mode in ("validation", "test"):
            evaluate(fe, ds, mode, [1, 5, 20])
            assert built == []
            ranks = rank_all(fe, ds, mode).ranks
            results = list(rank_all(fe, ds, mode))
            assert len(built) == ds.n_users  # the view builds its results on iteration only
            assert ranks.dtype == np.int64 and not ranks.flags.writeable
            assert ranks.tolist() == [r.rank for r in results]
            assert [r.user for r in results] == list(range(ds.n_users))
            assert all(type(r.user) is int and type(r.rank) is int for r in results)
            built.clear()

    def test_rank_view_indexes_like_a_list(self):
        ds = synthetic_split(n_users=7, n_items=10, seed=12)
        fe = np.random.default_rng(13).normal(size=(ds.n_users + ds.n_items, 4))
        view = rank_all(fe, ds, "test")
        results = list(view)
        assert len(view) == ds.n_users
        assert [view[u] for u in range(-ds.n_users, ds.n_users)] == results + results
        assert type(view[np.int64(2)].rank) is int
        for index in (ds.n_users, -ds.n_users - 1):
            with pytest.raises(IndexError):
                view[index]

    def test_scale_invariance_of_ranks(self):
        ds = synthetic_split(n_users=10, n_items=12, seed=9)
        fe = np.random.default_rng(10).normal(size=(ds.n_users + ds.n_items, 5))
        base = [r.rank for r in rank_all(fe, ds, "validation")]
        for alpha in (0.5, 2.0, 3.7):
            scaled = [r.rank for r in rank_all(alpha * fe, ds, "validation")]
            assert scaled == base

    def test_permutation_invariance_of_aggregates(self):
        rng = np.random.default_rng(11)
        ranks = rng.integers(1, 30, 40)
        shuffled = ranks.copy()
        rng.shuffle(shuffled)
        assert recall_at_n(ranks, 10) == recall_at_n(shuffled, 10)
        # equal up to float summation order
        assert ndcg_at_n(ranks, 10) == pytest.approx(ndcg_at_n(shuffled, 10), abs=1e-12)

    def test_test_mode_excludes_the_validation_item(self):
        # one user: train {0}, val 1, test 2; a third item 3 pads the catalog.
        # scores rank val above test, so only excluding the val item from
        # test-mode candidates puts the test item first
        ds = simple_ds([[0]], 4, validation=[1], test=[2])
        fe = embedding_for_scores([[9.0, 2.0, 1.0, 0.0]], 1)
        assert rank_all(fe, ds, "test")[0].rank == 1

    def test_dimension_mismatch(self):
        ds = simple_ds([[0]], 2, validation=[1], test=[1])
        with pytest.raises(EvalError):
            evaluate(np.zeros((5, 3)), ds, "test", [10])
        with pytest.raises(EvalError):
            evaluate(np.zeros((3, 2)), ds, "nope", [10])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, bad):
        ds = synthetic_split(n_users=6, n_items=8, seed=3)
        fe = np.full((ds.n_users + ds.n_items, 3), bad)
        with pytest.raises(EvalError, match="non-finite"):
            evaluate(fe, ds, "test", [1])
        with pytest.raises(EvalError, match="non-finite"):
            rank_heldout(fe, ds, 0, ds.test[0], set(ds.train[0]))

    def test_overflowing_products_still_rank(self):
        ds = simple_ds([[0]], 4, validation=[1], test=[3])
        fe = embedding_for_scores([[0.0, 3e300, 1e300, 2e300]], 1)
        fe[0] = 1e300  # finite rows: items 1, 2 and 3 all score +inf; item 1 is excluded
        assert rank_all(fe, ds, "test")[0].rank == 2


class TestFloat32Screen:
    """rank_all screens in float32 and scores again in float64 what it cannot
    certify; every rank must still equal a full float64 sort's."""

    @pytest.mark.parametrize("mode", ["validation", "test"])
    def test_tie_heavy_oracle_through_rank_all(self, mode):
        # the 1000 cases of test_acceptance.test_metric_oracle, same stream;
        # at test time the lowest excluded item is the validation item
        rng = np.random.default_rng(0)
        n_items = 50
        for case in range(1000):
            scores = rng.normal(size=n_items)
            if case % 3 == 0:
                scores = np.round(scores, 1)  # deliberate ties
            excl = sorted(int(x) for x in rng.choice(n_items, size=6, replace=False))
            target = int(rng.choice([i for i in range(n_items) if i not in excl]))
            if mode == "validation":
                ds = simple_ds([excl], n_items, validation=[target], test=[target])
            else:
                ds = simple_ds([excl[1:]], n_items, validation=[excl[0]], test=[target])
            fe = embedding_for_scores([scores], 1)
            want = brute_force_rank(scores, target, set(excl))
            assert rank_all(fe, ds, mode)[0].rank == want

    @staticmethod
    def planted(case):
        """(user row, item rows) of one user over 40 items, scores in a shuffled order."""
        steps = np.random.default_rng(23).permutation(40).astype(np.float64)
        if case == "near-tie":  # every item within 1e-12 relative of every other
            return np.array([1.0]), (1.0 + 2.5e-14 * steps)[:, None]
        if case == "float32-overflow":  # finite in float32, products near 1e40 are not
            return np.array([1e20, 1e20]), np.stack([1e20 * steps, 1e20 * (steps + 1)], axis=1)
        if case == "float32-underflow":  # products near 1e-46 round to float32 zero
            return np.array([1e-23, 1e-23]), np.stack([1e-23 * steps, 1e-23 * steps], axis=1)
        if case == "float32-partial-overflow":  # only item 0 overflows, and scores below most
            items = np.stack([1e17 * steps, 1e17 * steps], axis=1)
            items[0] = [1.75e19, -1.66e19]
            return np.array([2e19, 2e19]), items
        if case == "float32-rounding":  # terms near 1 cancel to scores ~1e-6 apart, and
            rng = np.random.default_rng(28)  # float32 rounding reorders some of them
            user, common = rng.normal(size=(2, 8))
            common -= (common @ user) / (user @ user) * user
            return user, common + 1e-6 * rng.normal(size=(40, 8))
        return np.zeros(3), np.random.default_rng(24).normal(size=(40, 3))  # all-zero user

    @pytest.mark.parametrize("mode", ["validation", "test"])
    @pytest.mark.parametrize("case", ["near-tie", "float32-overflow", "float32-underflow",
                                      "float32-partial-overflow", "float32-rounding", "zero-user"])
    def test_planted_cases_match_lexsort_oracle(self, case, mode):
        user, items = self.planted(case)
        ds = simple_ds([[5, 17]], 40, validation=[30], test=[21])
        fe = np.vstack([user, items])
        ranks = [r.rank for r in rank_all(fe, ds, mode)]
        assert ranks == lexsort_ranks(fe, ds, mode)
        assert ranks[0] > 1  # a count of the float32 winners alone would say 1

    def test_screen_counts_past_two_to_the_sixteen_columns(self, monkeypatch):
        # 70,000 distinct integer scores: the screen certifies the row, which
        # needs its count of 68,998 items above the target not to wrap
        n_items = 70_000
        scores = np.random.default_rng(25).permutation(n_items).astype(np.float64)
        target = int(np.flatnonzero(scores == 1000)[0])
        ds = simple_ds([[int(np.argmax(scores))]], n_items, validation=[target], test=[target])
        fe = embedding_for_scores([scores], 1)
        monkeypatch.setattr(odecf.evaluation, "_ranks", None)  # not called
        assert rank_all(fe, ds, "validation")[0].rank == n_items - 1000 - 1

    def test_only_uncertain_rows_reach_the_float64_ranking(self, monkeypatch):
        # scores 1e-3 apart leave the screen nothing to hand on; an all-zero
        # user ties every item and is the one row scored again in float64
        ds = synthetic_split(n_users=6, n_items=40, seed=21)
        rng = np.random.default_rng(22)
        scores = 1e-3 * np.array([rng.permutation(ds.n_items) for _ in range(ds.n_users)])
        fe = embedding_for_scores(scores, ds.n_users)
        passed = []
        real_ranks = odecf.evaluation._ranks

        def spy(block, targets, mask):
            passed.append(block.copy())
            return real_ranks(block, targets, mask)

        monkeypatch.setattr(odecf.evaluation, "_ranks", spy)
        for mode in ("validation", "test"):
            assert [r.rank for r in rank_all(fe, ds, mode)] == lexsort_ranks(fe, ds, mode)
        assert sum(len(block) for block in passed) == 0
        fe[3] = 0.0
        ranks = [r.rank for r in rank_all(fe, ds, "test")]
        assert ranks == lexsort_ranks(fe, ds, "test")
        assert [len(block) for block in passed] == [1]
        assert np.all(np.isnan(passed[0]) | (passed[0] == 0.0))


def test_metrics_report_lookup():
    report = MetricsReport(n_values=[10, 20], recall=[0.1, 0.2], ndcg=[0.05, 0.07],
                           users_evaluated=3)
    assert report.recall_at(20) == 0.2
    assert report.ndcg_at(10) == 0.05
    with pytest.raises(EvalError):
        report.recall_at(50)


def test_metrics_csv(tmp_path):
    report = MetricsReport(n_values=[20], recall=[0.25], ndcg=[0.125], users_evaluated=4)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [("validation", report), ("test", report)])
    lines = path.read_text().splitlines()
    assert lines[0] == "mode,N,recall,ndcg,users"
    assert lines[1] == "validation,20,0.25,0.125,4"
    assert lines[2] == "test,20,0.25,0.125,4"
