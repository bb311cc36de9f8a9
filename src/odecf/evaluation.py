"""Leave-one-out ranking evaluation: per-user held-out rank, Recall@N and NDCG@N.

The held-out item is ranked against every item the user has not trained on
(full ranking, no sampled candidates). Ties are ordered deterministically:
score descending, then item id ascending, so a target's rank is 1 + the items
scoring strictly above it + the tied items with a smaller id.

``rank_all`` scores users in blocks of at most ``_BLOCK_BYTES`` (8 MiB; see
there why no smaller). Each call allocates one score buffer and one bool mask
of that block's shape and reuses both for every block: the GEMM writes into
the buffer and excluded items are set to NaN there. One routine, which
``rank_heldout`` also uses, ranks every row with two compare passes into the
mask: one counts the strict winners per row, the other finds the ties, of
which only those left of the target's column count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import SplitDataset


class EvalError(ValueError):
    """Raised for ill-posed ranking or aggregation requests."""


class RankResult(NamedTuple):
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


def _ranks(block: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """1-based rank of column ``targets[r]`` within each row r of ``block``:
    1 + the columns scoring above it + the tied columns with a smaller id.
    Excluded columns hold NaN, which is neither above nor equal to any score,
    so they never compete, not even with a target scoring -inf. ``mask`` is
    bool scratch of ``block``'s shape; both are C-contiguous."""
    height, width = block.shape
    target_scores = block[np.arange(height), targets][:, None]
    np.greater(block, target_scores, out=mask)
    # a uint8 sum into int32 takes about half the time of count_nonzero(axis=1)
    ranks = 1 + np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)
    np.equal(block, target_scores, out=mask)
    ties = np.flatnonzero(mask)  # ascending: row r's ties below its target lie in [r*w, r*w + target)
    starts = np.arange(height) * width
    ranks += np.searchsorted(ties, starts + targets) - np.searchsorted(ties, starts)
    return ranks


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
    scores[excluded] = np.nan
    rank = _ranks(scores[None], np.array([target]), np.empty((1, ds.n_items), dtype=bool))
    return RankResult(user, int(rank[0]))


# Budget of the one user-by-item score buffer of a rank_all call (its bool mask
# adds an eighth). The buffer is freed when the call returns; a smaller freed
# buffer lowers glibc's heap-trim threshold, and at 4 MiB later training steps
# page-faulted 4-12x more, so the budget stays at 8 MiB.
_BLOCK_BYTES = 8 << 20


def rank_all(fe: np.ndarray, ds: SplitDataset, mode: str,
             exclude_validation_at_test: bool = True) -> list[RankResult]:
    """Held-out ranks for every user, scored in user blocks of at most
    ``_BLOCK_BYTES`` (one user at least) in one reused buffer."""
    if mode not in ("validation", "test"):
        raise EvalError(f"mode must be 'validation' or 'test', got {mode!r}")
    fe = _check_embeddings(fe, ds)
    targets = ds.validation if mode == "validation" else ds.test
    indptr = ds.train_indptr
    item_rows = fe[ds.n_users :]
    height = max(1, min(ds.n_users, _BLOCK_BYTES // (8 * ds.n_items)))
    scores = np.empty((height, ds.n_items))
    mask = np.empty((height, ds.n_items), dtype=bool)
    ranks = np.empty(ds.n_users, dtype=np.int64)
    for lo in range(0, ds.n_users, height):
        hi = min(lo + height, ds.n_users)
        rows = np.arange(hi - lo)
        block = scores[: hi - lo]
        with np.errstate(over="ignore"):  # finite but extreme embeddings score +-inf and still rank
            np.matmul(fe[lo:hi], item_rows.T, out=block)
        block[np.repeat(rows, np.diff(indptr[lo : hi + 1])),
              ds.train_items[indptr[lo] : indptr[hi]]] = np.nan
        if mode == "test" and exclude_validation_at_test:
            block[rows, ds.validation[lo:hi]] = np.nan
        ranks[lo:hi] = _ranks(block, targets[lo:hi], mask[: hi - lo])
    return list(map(RankResult, range(ds.n_users), ranks.tolist()))


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
