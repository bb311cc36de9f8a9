import sys
import threading
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
    recall_at_n,
    write_metrics_csv,
)

from conftest import BLAS_THREAD_VARIABLES, run_fresh, two_blas_threads
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


def tie_heavy_cases(rng, n_cases, n_items, rounded):
    """One user per randomized case, normal scores over ``n_items`` items,
    rounded to one decimal (deliberate ties) for the users where ``rounded``
    holds. Each user's 6 exclusions are 5 train items and its validation item,
    and its test item is drawn from the rest. Returns the dataset, embeddings
    reproducing the scores, and the brute-force test-mode ranks."""
    scores = rng.normal(size=(n_cases, n_items))
    scores[rounded] = np.round(scores[rounded], 1)
    picks = [rng.choice(n_items, size=7, replace=False).tolist() for _ in range(n_cases)]
    ds = simple_ds([p[:5] for p in picks], n_items,
                   validation=[p[5] for p in picks], test=[p[6] for p in picks])
    want = [brute_force_rank(row, p[6], set(p[:6])) for row, p in zip(scores, picks)]
    return ds, embedding_for_scores(scores, n_cases), want


class TestRankOrder:
    def test_unique_maximum_ranks_first(self):
        ds = simple_ds([[1]], 4, validation=[2], test=[3])
        fe = embedding_for_scores([[0.1, 0.0, 0.9, 0.2]], 1)
        assert rank_all(fe, ds, "validation").ranks[0] == 1

    def test_all_equal_scores_lowest_id_wins(self):
        ds = simple_ds([[3], [3]], 5, validation=[0, 2], test=[1, 1])
        fe = embedding_for_scores([[0.5] * 5] * 2, 2)
        assert rank_all(fe, ds, "validation").ranks.tolist() == [1, 3]  # ids 0,1 tie above 2
        assert rank_all(fe, ds, "test").ranks.tolist() == [1, 2]  # user 0's validation item 0 is excluded

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        ds, fe, want = tie_heavy_cases(rng, 1000, 50, rng.random(1000) < 0.3)
        assert rank_all(fe, ds, "test").ranks.tolist() == want


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

    def test_rank_all_consistent_with_lexsort_ranks(self):
        ds = synthetic_split(n_users=12, n_items=10, seed=7)
        fe = np.random.default_rng(8).normal(size=(ds.n_users + ds.n_items, 4))
        assert rank_all(fe, ds, "test").ranks.tolist() == lexsort_ranks(fe, ds, "test")

    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["validation", "test"])
    def test_small_blocks_match_lexsort_ranks_on_exact_ties(self, monkeypatch, height, mode):
        # integer embeddings give exact products and many tied scores in every
        # row, so ties fall on both sides of each block boundary
        ds = synthetic_split(n_users=11, n_items=10, seed=12)
        monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * ds.n_items * height)
        fe = np.random.default_rng(13).integers(-1, 2, size=(ds.n_users + ds.n_items, 2))
        fe = fe.astype(np.float64)
        results = rank_all(fe, ds, mode)
        assert [r.user for r in results] == list(range(ds.n_users))
        assert [r.rank for r in results] == lexsort_ranks(fe, ds, mode)

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
        # the score buffer is the budget and the screen's flags live in its idle bytes; the
        # float32 copy and the index arrays take the rest: 1.16-1.17 budgets
        assert self.rank_all_peak_bytes() < 1.2 * odecf.evaluation._BLOCK_BYTES

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
        assert rank_all(fe, ds, "test").ranks[0] == 1

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
            rank_all(fe, ds, "test")

    def test_overflowing_products_still_rank(self):
        ds = simple_ds([[0]], 4, validation=[1], test=[3])
        fe = embedding_for_scores([[0.0, 3e300, 1e300, 2e300]], 1)
        fe[0] = 1e300  # finite rows: items 1, 2 and 3 all score +inf; item 1 is excluded
        assert rank_all(fe, ds, "test").ranks[0] == 2

    @pytest.mark.parametrize("mode", ["validation", "test"])
    def test_nan_held_out_score_is_an_error(self, mode):
        # finite rows whose products overflow to +inf and -inf: item 3 scores NaN (summed
        # over two columns the same rows give -inf, so the setup checks the NaN)
        ds = simple_ds([[0]], 4, validation=[3 if mode == "validation" else 1], test=[3])
        fe = np.zeros((1 + 4, 4))
        fe[0] = [1e300, 1e300, 0, 0]
        fe[1 + 3] = [1e300, -1e300, 0, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(fe[1:] @ fe[0])[3]
        with pytest.raises(EvalError, match="user 0"):
            rank_all(fe, ds, mode)
        with pytest.raises(EvalError, match="user 0"):
            evaluate(fe, ds, mode, [1])


class TestFloat32Screen:
    """rank_all screens in float32 and ranks each user it cannot certify alone
    in float64; every rank must still equal a full float64 sort's."""

    @pytest.mark.parametrize("mode", ["validation", "test"])
    def test_tie_heavy_oracle_through_rank_all(self, mode):
        # 1000 randomized tie-heavy cases, one single-user call each; at test
        # time the lowest excluded item is the validation item
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
            assert rank_all(fe, ds, mode).ranks[0] == want

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
        monkeypatch.setattr(odecf.evaluation, "_rank_alone", None)  # not called
        assert rank_all(fe, ds, "validation").ranks[0] == n_items - 1000 - 1

    def test_only_uncertain_rows_reach_the_float64_ranking(self, monkeypatch):
        # scores 1e-3 apart leave the screen nothing to hand on; an all-zero
        # user ties every item and is the one row scored again in float64
        ds = synthetic_split(n_users=6, n_items=40, seed=21)
        rng = np.random.default_rng(22)
        scores = 1e-3 * np.array([rng.permutation(ds.n_items) for _ in range(ds.n_users)])
        fe = embedding_for_scores(scores, ds.n_users)
        passed = []
        real_rank_alone = odecf.evaluation._rank_alone

        def spy(fe, ds, mode, u):
            passed.append(int(u))
            return real_rank_alone(fe, ds, mode, u)

        monkeypatch.setattr(odecf.evaluation, "_rank_alone", spy)
        for mode in ("validation", "test"):
            assert [r.rank for r in rank_all(fe, ds, mode)] == lexsort_ranks(fe, ds, mode)
        assert passed == []
        fe[3] = 0.0
        ranks = [r.rank for r in rank_all(fe, ds, "test")]
        assert ranks == lexsort_ranks(fe, ds, "test")
        assert passed == [3]

    @staticmethod
    def ulp_ties(seed):
        """300 users over 400 items at d=32, with near ties of about one ulp. Every
        user's first two coordinates are equal; items 1-199 copy item 0, every other
        copy with those two coordinates swapped (the same exact score, evaluated in
        another order), each copy scaled by 1 + k 2^-52, k in [-2, 2]. The targets are
        items 1 (validation) and 0 (test); each user trains on 3 of items 200-399."""
        rng = np.random.default_rng(seed)
        users = rng.normal(size=(300, 32))
        users[:, 1] = users[:, 0]
        items = np.vstack([rng.normal(size=(1, 32)).repeat(200, axis=0),
                           rng.normal(size=(200, 32))])
        items[1:200:2, :2] = items[1:200:2, 1::-1]
        items[1:200] *= 1 + rng.integers(-2, 3, size=(199, 1)) * 2.0**-52
        train = [(200 + rng.choice(200, size=3, replace=False)).tolist() for _ in range(300)]
        return np.vstack([users, items]), train

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ranks_equal_each_users_own_float64_sort(self, monkeypatch, seed):
        # no rank may depend on the other users: each equals the full sort of
        # fe[n_users:] @ fe[u], in any block height and any order of the users
        fe, train = self.ulp_ties(seed)
        n = len(train)
        perm = np.random.default_rng(seed + 2).permutation(n)
        permuted = np.vstack([fe[:n][perm], fe[n:]])
        for mode in ("validation", "test"):
            want = np.array([brute_force_rank(fe[n:] @ fe[u], {"validation": 1, "test": 0}[mode],
                                              set(train[u]) | ({1} if mode == "test" else set()))
                             for u in range(n)])
            for height in (None, 1, 7):  # None: the default 8 MiB budget
                if height:
                    monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * 400 * height)
                ds = simple_ds(train, 400, validation=[1] * n, test=[0] * n)
                assert rank_all(fe, ds, mode).ranks.tolist() == want.tolist()
                ds = simple_ds([train[u] for u in perm], 400, validation=[1] * n, test=[0] * n)
                assert rank_all(permuted, ds, mode).ranks.tolist() == want[perm].tolist()


# 8 users over 50,001 items at d=64, every fifth item a copy of item 0 within a few ulps
# (as in TestFloat32Screen.ulp_ties), so the screen certifies no user and each rank reads
# the bits of fe[n_users:] @ fe[u]. OpenBLAS splits a product this large across threads
# (2 threads take about half the time of 1), and at 2 threads the first takes 25,001 rows,
# one past its last whole group of four
RANK_NEAR_TIES = """
import numpy as np
from odecf.data import SplitDataset
from odecf.evaluation import rank_all

rng = np.random.default_rng(70)
fe = rng.normal(size=(8 + 50_001, 64))
fe[:8, 1] = fe[:8, 0]
copies = fe[8::5]
copies[:] = fe[8]
copies[1::2, :2] = copies[1::2, 1::-1]
copies *= 1 + rng.integers(-2, 3, size=(len(copies), 1)) * 2.0**-52
ds = SplitDataset(n_users=8, n_items=50_001, train_indptr=np.arange(0, 27, 3),
                  train_items=1 + rng.choice(50_000, size=24, replace=False),
                  validation=np.full(8, 5), test=np.zeros(8, dtype=int),
                  user_index={}, item_index={})
for mode in ("validation", "test"):
    print(*rank_all(fe, ds, mode).ranks)
"""


@two_blas_threads
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="OpenBLAS's dgemv sums the rows past a thread's last group of four "
                          "in another order, so those scores, and ranks at ulp near-ties, "
                          "depend on where the thread split falls (CHANGES.md, FOUND)")
def test_rank_bits_do_not_depend_on_the_blas_thread_count():
    outputs = [run_fresh(["-c", RANK_NEAR_TIES], **dict.fromkeys(BLAS_THREAD_VARIABLES, n))
               for n in ("1", "2")]
    assert outputs[0] == outputs[1]


class TestSplitScreen:
    """rank_all screens two halves of the users at once, the first on a worker
    thread; neither the split nor the thread may change a rank."""

    @pytest.mark.parametrize("n_users", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["integer", "normal"])
    def test_one_row_budget_matches_lexsort_oracle(self, monkeypatch, n_users, kind):
        # a one-row budget gives each half one row, so a half of several users takes
        # several blocks; each user trains on three of 30 items and holds out two more
        rng = np.random.default_rng(60 + n_users)
        picks = [rng.choice(30, size=5, replace=False).tolist() for _ in range(n_users)]
        ds = simple_ds([p[:3] for p in picks], 30, validation=[p[3] for p in picks],
                       test=[p[4] for p in picks])
        monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * ds.n_items)
        shape = (ds.n_users + ds.n_items, 4)
        fe = (rng.integers(-2, 3, size=shape).astype(np.float64) if kind == "integer"
              else rng.normal(size=shape))
        for mode in ("validation", "test"):
            want = np.array(lexsort_ranks(fe, ds, mode))
            for depth in (None, 1, 3, 10):
                got = rank_all(fe, ds, mode, depth=depth).ranks
                assert got.tolist() == (want if depth is None else np.minimum(want, depth + 1)).tolist()

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_a_failing_half_raises_and_leaves_no_thread(self, monkeypatch, failing):
        ds = synthetic_split(n_users=6, n_items=20, seed=62)
        fe = np.random.default_rng(63).normal(size=(ds.n_users + ds.n_items, 4))
        threads = threading.active_count()
        caller = threading.get_ident()
        real_matmul = np.matmul

        def matmul(a, b, **kwargs):
            half = "second" if threading.get_ident() == caller else "first"
            if a.dtype == np.float32 and half == failing:
                raise RuntimeError(f"the {half} half failed")
            return real_matmul(a, b, **kwargs)

        assert rank_all(fe, ds, "test").ranks.tolist() == lexsort_ranks(fe, ds, "test")
        assert threading.active_count() == threads
        monkeypatch.setattr(np, "matmul", matmul)
        for depth in (None, 3):
            with pytest.raises(RuntimeError, match=f"the {failing} half failed"):
                rank_all(fe, ds, "validation", depth=depth)
            assert threading.active_count() == threads

    def test_concurrent_calls_under_a_short_switch_interval(self, monkeypatch):
        # four callers and their four workers on two cores, switching every microsecond:
        # a count lost between the halves, or one call touching another's buffer, moves a rank
        ds = synthetic_split(n_users=9, n_items=20, seed=64)
        monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * ds.n_items)
        fe = np.random.default_rng(65).integers(-2, 3, size=(ds.n_users + ds.n_items, 3))
        fe = fe.astype(np.float64)
        want = {(mode, depth): np.minimum(lexsort_ranks(fe, ds, mode), depth + 1).tolist()
                for mode in ("validation", "test") for depth in (3, ds.n_items)}
        got = []

        def caller():
            for (mode, depth), ranks in want.items():
                for _ in range(5):
                    got.append(rank_all(fe, ds, mode, depth=depth).ranks.tolist() == ranks)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert len(got) == 4 * 5 * len(want) and all(got)


class TestDepth:
    """rank_all(..., depth=n) scans items in descending float32-norm order and
    drops a user once n items provably beat its target; every rank must still
    equal min(full rank, n + 1)."""

    @pytest.mark.parametrize("height", [1, 3, None])  # users per full-width block; None: 8 MiB
    @pytest.mark.parametrize("kind", ["integer", "normal", "scaled-up", "scaled-down"])
    def test_depth_caps_the_full_ranks(self, monkeypatch, kind, height):
        # 30 users over 200 items: a one-user budget gives chunks of 6, 6, 12, 24, 48, 96 and
        # 8 items, the wider ones in several user blocks; scaled rows cannot be certified
        for seed in range(3):
            ds = synthetic_split(n_users=30, n_items=200, seed=40 + seed)
            if height:
                monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * ds.n_items * height)
            rng = np.random.default_rng(50 + seed)
            shape = (ds.n_users + ds.n_items, 4)
            fe = (rng.integers(-2, 3, size=shape).astype(np.float64) if kind == "integer"
                  else rng.normal(size=shape) * {"normal": 1.0, "scaled-up": 1e30,
                                                 "scaled-down": 1e-30}[kind])
            for mode in ("validation", "test"):
                full = rank_all(fe, ds, mode).ranks
                assert full.tolist() == lexsort_ranks(fe, ds, mode)
                for n in (1, 3, 10, 20):
                    assert np.array_equal(rank_all(fe, ds, mode, depth=n).ranks,
                                          np.minimum(full, n + 1))

    @staticmethod
    def layered():
        """8 users over 64 items. Items 48-63 have norms 100-115, so a one-user
        budget (rounded up to a row for each half of the screen: chunks of 16, 16
        and 32 items) scans them first: users 0-3 score them 100 to 115, above
        every other item, and users 4-7 score them -100 to -115. Items 0-47
        score -0.9 to 0.9 and hold the targets. A third coordinate names the
        user and adds nothing."""
        rng = np.random.default_rng(33)
        fe = np.zeros((8 + 64, 3))
        fe[:8, 0] = 1.0
        fe[:8, 1] = [1.0] * 4 + [-1.0] * 4
        fe[:8, 2] = np.arange(8)
        fe[8 + 48 :, 1] = 100.0 + np.arange(16)
        fe[8 : 8 + 48, 0] = rng.permutation(np.linspace(-0.9, 0.9, 48))
        small = np.argsort(fe[8 : 8 + 48, 0])  # items 0-47 by score, ascending
        ds = simple_ds([[48 + u, int(small[u])] for u in range(8)], 64,
                       validation=[int(small[10 + u]) for u in range(8)],
                       test=[int(small[30 + u]) for u in range(8)])
        return fe, ds

    @pytest.mark.parametrize("mode", ["validation", "test"])
    def test_target_in_a_later_chunk_than_its_winners(self, monkeypatch, mode):
        fe, ds = self.layered()
        monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * ds.n_items)
        monkeypatch.setattr(odecf.evaluation, "_rank_alone", None)  # every user is certified
        full = lexsort_ranks(fe, ds, mode)
        assert min(full[:4]) > 16  # 15 winners in the first chunk, the target in a later one
        for depth in (1, 3, 15, 16, 20, None):
            got = rank_all(fe, ds, mode, depth=depth).ranks
            assert got.tolist() == (full if depth is None else np.minimum(full, depth + 1).tolist())

    def test_users_past_depth_in_the_first_chunk_score_no_further(self, monkeypatch):
        fe, ds = self.layered()
        monkeypatch.setattr(odecf.evaluation, "_BLOCK_BYTES", 8 * ds.n_items)
        scored = {}  # half -> (users, items) of each of its float32 blocks
        caller = threading.get_ident()  # scans the second half; a worker scans the first
        real_matmul = np.matmul

        def spy(a, b, **kwargs):
            if a.dtype == np.float32:
                half = "second" if threading.get_ident() == caller else "first"
                scored.setdefault(half, []).append((a[:, 2].astype(int).tolist(), b.shape[1]))
            return real_matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        rank_all(fe, ds, "validation", depth=3)
        # users 0-3 have 15 winners in the first chunk, so their half scores no further;
        # users 4-7 have none there, and 8 in the second chunk
        assert scored == {"first": [([0, 1, 2, 3], 16)],
                          "second": [([4, 5, 6, 7], 16), ([4, 5, 6, 7], 16)]}
        scored.clear()
        rank_all(fe, ds, "validation")  # one whole-catalog chunk, one row a block
        assert scored == {"first": [([u], 64) for u in range(4)],
                          "second": [([u], 64) for u in range(4, 8)]}

    @pytest.mark.parametrize("shift", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("mode", ["validation", "test"])
    def test_target_column_and_threshold_are_separate_float32_evaluations(self, monkeypatch,
                                                                          shift, mode):
        # the target's score 2^24 + 1 - 2^24 = 1 is 0 or 1 in float32 by summation
        # order, so the GEMM's score of its column may differ from the einsum's by
        # 1; a shift of the einsum's result by one order's difference makes them
        # differ for certain, and the column must still fall in neither count
        n_items = 41
        fe = np.zeros((1 + n_items, 3))
        fe[0] = 1.0
        fe[1:, 0] = 100.0 * np.arange(-20, 21)
        target = 20  # scores 0 in the first coordinate
        fe[1 + target] = [2.0**24, 1.0, -2.0**24]
        held_out = {"validation": dict(validation=[target], test=[7]),
                    "test": dict(validation=[7], test=[target])}[mode]
        ds = simple_ds([[3, 35]], n_items, **held_out)
        real_einsum = np.einsum

        def einsum(*args, **kwargs):
            out = real_einsum(*args, **kwargs)
            return out + np.float32(shift) if out.dtype == np.float32 else out

        monkeypatch.setattr(np, "einsum", einsum)
        monkeypatch.setattr(odecf.evaluation, "_rank_alone", None)  # the user is certified
        assert lexsort_ranks(fe, ds, mode) == [20]  # items 21-40 beat it, less the excluded 35
        for depth, want in ((None, 20), (40, 20), (19, 20), (5, 6)):
            assert rank_all(fe, ds, mode, depth=depth).ranks.tolist() == [want]

    @pytest.mark.parametrize("bad", [[0], [], [20, -1]])
    def test_evaluate_checks_cutoffs_before_ranking(self, monkeypatch, bad):
        ds = synthetic_split(n_users=6, n_items=8, seed=3)
        fe = np.random.default_rng(4).normal(size=(ds.n_users + ds.n_items, 3))
        monkeypatch.setattr(odecf.evaluation, "rank_all", None)  # not called
        with pytest.raises(EvalError, match="cutoffs"):
            evaluate(fe, ds, "test", bad)


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
