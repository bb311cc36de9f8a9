"""Leave-one-out ranking evaluation: per-user held-out rank, Recall@N and NDCG@N.

The held-out item is ranked against every item the user has not trained on
(full ranking, no sampled candidates). Ties are ordered deterministically:
score descending, then item id ascending, so a target's rank is 1 + the items
scoring strictly above it + the tied items with a smaller id.

``rank_all`` scores users in blocks of at most ``_BLOCK_BYTES`` (8 MiB; see
there why no smaller). Each call allocates one float64 score buffer and one
bool mask of that block's shape and reuses both for every block. A block is
first screened in float32: the GEMM writes float32 scores into the first half
of the buffer's bytes, excluded items are set to -inf there, and two compare
passes count, per user, the items scoring above the target by more than the
user's proven error margin (``_screen_margins``) and those scoring below it
by more. When these two counts cover every other item, no float64 evaluation
of the scores can order the target differently, and the rank is 1 + the
first count. The users the screen cannot certify (near-ties, exact ties,
scores that could overflow or underflow float32) are scored again in
float64 into the same buffer, with excluded items set to NaN, and ranked by
the one exact routine, ``_ranks``, which ``rank_heldout`` also uses: two
compare passes into the mask, one counting the strict winners per row, the
other finding the ties, of which only those left of the target's column
count.
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


def _screen_margins(fe32: np.ndarray, n_users: int) -> np.ndarray:
    """Per-user float32 margins M: when two items' float32 scores for a user
    differ by more than M, every float64 evaluation of the two scores orders
    them the same way. M is +inf where the screen cannot bound the scores.

    Write x^ for the float32 rounding of a float64 entry x, e = 2^-24 for the
    float32 unit roundoff, n = 2^-126 for the absolute error of one rounding
    in or below the subnormal range (also when subnormals flush to zero), d
    for the embedding width (the bound is stated for d <= 2^20; wider
    embeddings get M = +inf) and, for user u and every item v,
    S = ||u^|| max_v ||v^|| >= sum_k |u^_k v^_k| (Cauchy-Schwarz);
    ||v^||_1 <= sqrt(d) ||v^|| turns 1-norms into S's.

    - Inputs: |x - x^| <= e |x^| + n per entry, so |u.v - u^.v^| <=
      (2e + e^2) S + n (1 + e) (||u^||_1 + ||v^||_1) + d n^2.
    - float32 GEMM: d products and d - 1 sums in any order, fused or not,
      each with relative error e and absolute error n, give
      |s32 - u^.v^| <= g_d S + 2 d n (1 + g_d), g_d = d e / (1 - d e).
    - float64 GEMM: |s64 - u.v| <= g64_d sum_k |u_k v_k| <= e S, plus
      absolute terms far below n.

    So |s32 - s64| <= (g_d + 3e + e^2) S + n (1.01 sqrt(d) (||u^|| +
    max_v ||v^||) + 3 d), and two items' float64 order is certain when their
    float32 scores differ by more than twice that. With g_d <= d e +
    2 (d e)^2, 2 (g_d + 3e + e^2) <= 2^-23 (d + 4 + d^2 2^-23) less a spare
    2^-23 S, which covers the float64 rounding of M itself, and 2^-123 = 8n
    covers twice the absolute part. The float32 margin is rounded up.

    Every |product| and |partial sum| is at most (1 + g_d) S, so no float32
    score overflows while S < 2^126; the other users get M = +inf. So do
    users whose float32 row is non-finite, for their S is then inf or NaN.
    """
    d = fe32.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->i", fe32, fe32, dtype=np.float64))
    users, items = norms[:n_users], norms[n_users:].max()
    with np.errstate(over="ignore", invalid="ignore"):
        reach = users * items
        margins = (2.0**-23 * (d + 4 + d * d * 2.0**-23) * reach
                   + 2.0**-123 * (d + np.sqrt(d) * (users + items)))
        margins[~(reach < 2.0**126) | (d > 1 << 20)] = np.inf
        return np.nextafter(margins.astype(np.float32), np.float32(np.inf))


def _screen(block: np.ndarray, targets: np.ndarray, margins: np.ndarray,
            mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(certified, rank) per row of a float32 score ``block`` whose excluded
    columns hold -inf. A row is certified when every column other than the
    target scores above ``target + margin`` or below ``target - margin``
    (thresholds rounded outward and finite); its rank is then 1 + the
    columns above. NaN scores fall in neither count, so their row is not
    certified. ``mask`` is bool scratch of ``block``'s shape."""
    height, width = block.shape
    target_scores = block[np.arange(height), targets]
    with np.errstate(over="ignore", invalid="ignore"):
        upper = np.nextafter(target_scores + margins, np.float32(np.inf))
        lower = np.nextafter(target_scores - margins, np.float32(-np.inf))
    # a uint8 sum into uint16 takes about half the time of int32 and holds any count below 2^16
    count = np.uint16 if width < 1 << 16 else np.int32
    np.greater(block, upper[:, None], out=mask)
    above = np.add.reduce(mask.view(np.uint8), axis=1, dtype=count)
    np.less(block, lower[:, None], out=mask)
    below = np.add.reduce(mask.view(np.uint8), axis=1, dtype=count)
    certified = np.isfinite(upper) & np.isfinite(lower) & (above + below == width - 1)
    return certified, 1 + above


def _excluded(ds: SplitDataset, users: np.ndarray, with_validation: bool):
    """(row, item) index arrays of the items excluded for each user
    ``users[row]``: the train items, and the validation item when asked."""
    starts = ds.train_indptr[users]
    counts = ds.train_indptr[users + 1] - starts
    rows = np.repeat(np.arange(len(users)), counts)
    first = np.cumsum(counts) - counts  # where each user's items start in ``rows``
    items = ds.train_items[np.repeat(starts - first, counts) + np.arange(len(rows))]
    if with_validation:
        rows = np.concatenate([rows, np.arange(len(users))])
        items = np.concatenate([items, ds.validation[users]])
    return rows, items


# Budget of the one user-by-item score buffer of a rank_all call (its bool mask
# adds an eighth). The buffer is freed when the call returns; a smaller freed
# buffer lowers glibc's heap-trim threshold, and at 4 MiB later training steps
# page-faulted 4-12x more, so the budget stays at 8 MiB. For the same reason
# the float32 screen block is a view of the first half of this buffer's bytes:
# a float32 buffer of its own made some later epochs fault up to 6x more.
_BLOCK_BYTES = 8 << 20


def rank_all(fe: np.ndarray, ds: SplitDataset, mode: str,
             exclude_validation_at_test: bool = True) -> list[RankResult]:
    """Held-out ranks for every user, scored in user blocks of at most
    ``_BLOCK_BYTES`` (one user at least) in one reused buffer: screened in
    float32, and scored again in float64 where the screen cannot certify."""
    if mode not in ("validation", "test"):
        raise EvalError(f"mode must be 'validation' or 'test', got {mode!r}")
    fe = _check_embeddings(fe, ds)
    targets = ds.validation if mode == "validation" else ds.test
    with_validation = mode == "test" and exclude_validation_at_test
    n_users, n_items = ds.n_users, ds.n_items
    item_rows = fe[n_users:]
    height = max(1, min(n_users, _BLOCK_BYTES // (8 * n_items)))
    # the buffer before the float32 copy: the other order made the next training epoch page-fault more
    scores = np.empty((height, n_items))
    mask = np.empty((height, n_items), dtype=bool)
    with np.errstate(over="ignore"):  # float32 infinities get an infinite margin
        fe32 = fe.astype(np.float32)
    margins = _screen_margins(fe32, n_users)
    screen = scores.reshape(-1).view(np.float32)[: height * n_items].reshape(height, n_items)
    ranks = np.empty(n_users, dtype=np.int64)
    certified = np.empty(n_users, dtype=bool)
    for lo in range(0, n_users, height):
        hi = min(lo + height, n_users)
        block = screen[: hi - lo]
        with np.errstate(over="ignore", invalid="ignore"):  # such rows are not certified
            np.matmul(fe32[lo:hi], fe32[n_users:].T, out=block)
        block[_excluded(ds, np.arange(lo, hi), with_validation)] = -np.inf
        certified[lo:hi], ranks[lo:hi] = _screen(block, targets[lo:hi], margins[lo:hi], mask[: hi - lo])
    rest = np.flatnonzero(~certified)
    for lo in range(0, len(rest), height):
        users = rest[lo : lo + height]
        block = scores[: len(users)]
        with np.errstate(over="ignore"):  # finite but extreme embeddings score +-inf and still rank
            np.matmul(fe[users], item_rows.T, out=block)
        block[_excluded(ds, users, with_validation)] = np.nan
        ranks[users] = _ranks(block, targets[users], mask[: len(users)])
    return list(map(RankResult, range(n_users), ranks.tolist()))


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
