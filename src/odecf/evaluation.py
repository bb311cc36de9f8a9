"""Leave-one-out ranking evaluation: per-user held-out rank, Recall@N and NDCG@N.

The held-out item is ranked against every item the user has not trained on
(full ranking, no sampled candidates). Ties are ordered deterministically:
score descending, then item id ascending. Scores are computed in user blocks
of bounded size, and one routine ranks every row of a block at once.
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


def _ranks(block: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of column ``targets[r]`` within each row r of ``block``:
    1 + the columns scoring above it + the tied columns with a smaller id."""
    target_scores = block[np.arange(block.shape[0]), targets][:, None]
    before = np.arange(block.shape[1]) < targets[:, None]
    ahead = (block > target_scores) | ((block == target_scores) & before)
    return 1 + np.count_nonzero(ahead, axis=1)


def rank_heldout(fe: np.ndarray, ds: SplitDataset, user: int, target: int,
                 exclusions) -> RankResult:
    """Rank one held-out item against all non-excluded items for one user.

    The rank counts candidates scoring strictly above the target plus tied
    candidates with a smaller item id. Excluded items never compete.
    """
    excluded = np.fromiter(exclusions, dtype=np.int64)
    fe = _check_embeddings(fe, ds)
    if not 0 <= user < ds.n_users:
        raise EvalError(f"user id {user} out of range [0, {ds.n_users})")
    if not 0 <= target < ds.n_items:
        raise EvalError(f"item id {target} out of range [0, {ds.n_items})")
    outside = (excluded < 0) | (excluded >= ds.n_items)
    if outside.any():
        raise EvalError(f"excluded item id {excluded[outside][0]} out of range [0, {ds.n_items})")
    if (excluded == target).any():
        raise EvalError(f"target item {target} is excluded for user {user}")
    scores = fe[ds.n_users :] @ fe[user]
    scores[excluded] = -np.inf
    return RankResult(user=user, rank=int(_ranks(scores[None], np.array([target]))[0]))


# Budget of one user-by-item score block in rank_all. A smaller freed block lowers
# glibc's heap-trim threshold: at 4 MiB, later training steps page-faulted 4-12x more.
_BLOCK_BYTES = 8 << 20


def rank_all(fe: np.ndarray, ds: SplitDataset, mode: str,
             exclude_validation_at_test: bool = True) -> list[RankResult]:
    """Held-out ranks for every user, scored in user blocks of at most
    ``_BLOCK_BYTES`` (one user at least)."""
    if mode not in ("validation", "test"):
        raise EvalError(f"mode must be 'validation' or 'test', got {mode!r}")
    fe = _check_embeddings(fe, ds)
    targets = ds.validation if mode == "validation" else ds.test
    indptr = ds.train_indptr
    item_rows = fe[ds.n_users :]
    height = max(1, _BLOCK_BYTES // (8 * ds.n_items))
    ranks = np.empty(ds.n_users, dtype=np.int64)
    for lo in range(0, ds.n_users, height):
        hi = min(lo + height, ds.n_users)
        rows = np.arange(hi - lo)
        with np.errstate(over="ignore"):  # finite but extreme embeddings score +-inf and still rank
            block = fe[lo:hi] @ item_rows.T
        block[np.repeat(rows, np.diff(indptr[lo : hi + 1])),
              ds.train_items[indptr[lo] : indptr[hi]]] = -np.inf
        if mode == "test" and exclude_validation_at_test:
            block[rows, ds.validation[lo:hi]] = -np.inf
        ranks[lo:hi] = _ranks(block, targets[lo:hi])
        del block  # freed before the next block is scored: one alive at a time
    return [RankResult(user=u, rank=r) for u, r in enumerate(ranks.tolist())]


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
