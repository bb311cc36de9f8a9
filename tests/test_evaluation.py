import numpy as np
import pytest

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


class TestAggregates:
    def test_recall_examples(self):
        results = [RankResult(0, 3), RankResult(1, 25)]
        assert recall_at_n(results, 20) == 0.5
        assert recall_at_n([RankResult(u, 1) for u in range(9)], 20) == 1.0

    def test_recall_at_full_catalog_is_one(self):
        rng = np.random.default_rng(1)
        results = [RankResult(u, int(r)) for u, r in enumerate(rng.integers(1, 41, 30))]
        assert recall_at_n(results, 40) == 1.0

    def test_ndcg_examples(self):
        assert ndcg_at_n([RankResult(0, 1)], 20) == pytest.approx(1.0)
        assert ndcg_at_n([RankResult(0, 3)], 20) == pytest.approx(0.5)
        assert ndcg_at_n([RankResult(0, 1), RankResult(1, 3)], 20) == pytest.approx(0.75)

    def test_ndcg_never_exceeds_recall(self):
        rng = np.random.default_rng(2)
        results = [RankResult(u, int(r)) for u, r in enumerate(rng.integers(1, 60, 50))]
        for n in (1, 5, 20, 59):
            assert ndcg_at_n(results, n) <= recall_at_n(results, n) + 1e-15

    def test_empty_and_bad_n(self):
        with pytest.raises(EvalError):
            recall_at_n([], 10)
        with pytest.raises(EvalError):
            ndcg_at_n([], 10)
        with pytest.raises(EvalError):
            recall_at_n([RankResult(0, 1)], 0)

    def test_uniform_scores_hit_rate(self):
        # with i.i.d. scores the held-out rank is uniform on 1..M, so
        # recall@N concentrates around N/M
        rng = np.random.default_rng(3)
        n_users, n_items, n = 4000, 40, 8
        ranks = [RankResult(u, int(rng.integers(1, n_items + 1))) for u in range(n_users)]
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

    def test_scale_invariance_of_ranks(self):
        ds = synthetic_split(n_users=10, n_items=12, seed=9)
        fe = np.random.default_rng(10).normal(size=(ds.n_users + ds.n_items, 5))
        base = [r.rank for r in rank_all(fe, ds, "validation")]
        for alpha in (0.5, 2.0, 3.7):
            scaled = [r.rank for r in rank_all(alpha * fe, ds, "validation")]
            assert scaled == base

    def test_permutation_invariance_of_aggregates(self):
        rng = np.random.default_rng(11)
        results = [RankResult(u, int(r)) for u, r in enumerate(rng.integers(1, 30, 40))]
        shuffled = list(results)
        rng.shuffle(shuffled)
        assert recall_at_n(results, 10) == recall_at_n(shuffled, 10)
        # equal up to float summation order
        assert ndcg_at_n(results, 10) == pytest.approx(ndcg_at_n(shuffled, 10), abs=1e-12)

    def test_validation_exclusion_convention_switch(self):
        # one user: train {0}, val 1, test 2; a third item 3 pads the catalog.
        # scores rank val above test, so including the val item in test-mode
        # candidates pushes the test rank down by one
        ds = simple_ds([[0]], 4, validation=[1], test=[2])
        fe = embedding_for_scores([[9.0, 2.0, 1.0, 0.0]], 1)
        strict = rank_all(fe, ds, "test", exclude_validation_at_test=True)
        loose = rank_all(fe, ds, "test", exclude_validation_at_test=False)
        assert strict[0].rank == 1
        assert loose[0].rank == 2

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
        ds = simple_ds([[0]], 3, validation=[1], test=[2])
        fe = embedding_for_scores([[0.0, 1e300, 2e300]], 1)
        fe[0] = 1e300  # finite rows: items 1 and 2 both score +inf and tie
        assert rank_all(fe, ds, "test", exclude_validation_at_test=False)[0].rank == 2


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
