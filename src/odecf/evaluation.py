"""Leave-one-out ranking evaluation: per-user held-out rank, Recall@N and NDCG@N.

The held-out item is ranked against every item the user has not trained on
(full ranking, no sampled candidates). Ties are ordered deterministically:
score descending, then item id ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitDataset


class EvalError(ValueError):
    """Raised for ill-posed ranking or aggregation requests."""


@dataclass(frozen=True)
class RankResult:
    user: int
    rank: int  # 1-based position among candidate items


@dataclass(eq=False)
class MetricsReport:
    n_values: list[int]
    recall: list[float]
    ndcg: list[float]
    users_evaluated: int

    def _at(self, values, n):
        try:
            return values[self.n_values.index(n)]
        except ValueError:
            raise EvalError(f"report holds N={self.n_values}, not N={n}") from None

    def recall_at(self, n: int) -> float:
        return self._at(self.recall, n)

    def ndcg_at(self, n: int) -> float:
        return self._at(self.ndcg, n)


def _rank_from_scores(scores: np.ndarray, target: int) -> int:
    target_score = scores[target]
    greater = int(np.count_nonzero(scores > target_score))
    tied_lower_id = int(np.count_nonzero((scores == target_score) & (np.arange(scores.size) < target)))
    return 1 + greater + tied_lower_id


def _check_embeddings(fe, ds: SplitDataset) -> np.ndarray:
    fe = np.asarray(fe, dtype=np.float64)
    if fe.ndim != 2 or fe.shape[0] != ds.n_users + ds.n_items:
        raise EvalError(
            f"embedding shape {fe.shape} does not match dataset with "
            f"{ds.n_users}+{ds.n_items} nodes"
        )
    if not np.isfinite(fe).all():  # a NaN target would otherwise rank first
        raise EvalError("embeddings hold non-finite entries; nothing to rank")
    return fe


def rank_heldout(fe: np.ndarray, ds: SplitDataset, user: int, target: int,
                 exclusions) -> RankResult:
    """Rank one held-out item against all non-excluded items for one user.

    The rank counts candidates scoring strictly above the target plus tied
    candidates with a smaller item id. Excluded items never compete.
    """
    exclusions = set(exclusions)
    fe = _check_embeddings(fe, ds)
    if not 0 <= user < ds.n_users:
        raise EvalError(f"user id {user} out of range [0, {ds.n_users})")
    if not 0 <= target < ds.n_items:
        raise EvalError(f"item id {target} out of range [0, {ds.n_items})")
    if target in exclusions:
        raise EvalError(f"target item {target} is excluded for user {user}")
    scores = fe[ds.n_users :] @ fe[user]
    if exclusions:
        scores = scores.copy()
        scores[np.fromiter(exclusions, dtype=np.int64)] = -np.inf
    return RankResult(user=user, rank=_rank_from_scores(scores, target))


def rank_all(fe: np.ndarray, ds: SplitDataset, mode: str,
             exclude_validation_at_test: bool = True,
             chunk_size: int = 1024) -> list[RankResult]:
    """Held-out ranks for every user, computed in user blocks."""
    if mode not in ("validation", "test"):
        raise EvalError(f"mode must be 'validation' or 'test', got {mode!r}")
    fe = _check_embeddings(fe, ds)
    targets = ds.validation if mode == "validation" else ds.test
    item_rows = fe[ds.n_users :]
    results: list[RankResult] = []
    for lo in range(0, ds.n_users, chunk_size):
        users = range(lo, min(lo + chunk_size, ds.n_users))
        with np.errstate(over="ignore"):  # finite but extreme embeddings score +-inf and still rank
            block = fe[lo : lo + chunk_size] @ item_rows.T
        for row, u in enumerate(users):
            scores = block[row]
            excluded = list(ds.train[u])
            if mode == "test" and exclude_validation_at_test:
                excluded.append(ds.validation[u])
            if excluded:
                scores[np.asarray(excluded, dtype=np.int64)] = -np.inf
            results.append(RankResult(user=u, rank=_rank_from_scores(scores, targets[u])))
    return results


def recall_at_n(results, n: int) -> float:
    """Fraction of users whose held-out item ranks within the top n."""
    if n < 1:
        raise EvalError(f"N must be >= 1, got {n}")
    if not results:
        raise EvalError("no rank results to aggregate")
    return sum(1 for r in results if r.rank <= n) / len(results)


def ndcg_at_n(results, n: int) -> float:
    """Mean positional gain 1/log2(rank+1) over users, zero past the top n."""
    if n < 1:
        raise EvalError(f"N must be >= 1, got {n}")
    if not results:
        raise EvalError("no rank results to aggregate")
    total = sum(1.0 / np.log2(r.rank + 1.0) for r in results if r.rank <= n)
    return float(total / len(results))


def evaluate(fe: np.ndarray, ds: SplitDataset, mode: str, n_values,
             exclude_validation_at_test: bool = True) -> MetricsReport:
    """Rank every user's held-out item and aggregate both metrics per N."""
    results = rank_all(fe, ds, mode, exclude_validation_at_test)
    n_values = [int(n) for n in n_values]
    return MetricsReport(
        n_values=n_values,
        recall=[recall_at_n(results, n) for n in n_values],
        ndcg=[ndcg_at_n(results, n) for n in n_values],
        users_evaluated=len(results),
    )


def write_metrics_csv(path, entries) -> None:
    """CSV rows 'mode,N,recall,ndcg,users' for (mode, MetricsReport) pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode,N,recall,ndcg,users\n")
        for mode, report in entries:
            for n, recall, ndcg in zip(report.n_values, report.recall, report.ndcg):
                fh.write(f"{mode},{n},{float(recall)!r},{float(ndcg)!r},{report.users_evaluated}\n")
