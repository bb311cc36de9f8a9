"""Leave-one-out ranking evaluation: per-user held-out rank, Recall@N and NDCG@N.

The held-out item is ranked against every item the user has not trained on
(full ranking, no sampled candidates). Ties are ordered deterministically:
score descending, then item id ascending, so a target's rank is 1 + the items
scoring strictly above it + the tied items with a smaller id.

``rank_all(fe, ds, mode, depth)`` returns each user's rank as ``min(rank,
depth + 1)``, which is all Recall@N and NDCG@N read for N <= depth; without
``depth`` the ranks are exact. Each call first allocates one score buffer of at
most ``_BLOCK_BYTES`` (8 MiB; see there why no smaller) and reuses it
throughout the screen, then one float32 copy of the embeddings. Users are first
screened in float32, over item chunks in descending float32-norm order (the
copy's item rows are put in that order in place), the items likeliest to beat a
target first: the first chunk is as many items as the first half of the
buffer's bytes holds float32 scores for every user, and each later chunk
doubles the scanned prefix (without ``depth``, one whole-catalog chunk). Two
contiguous halves of the users are scanned at once, one on a worker thread,
each in its own whole rows of that half and of the bool flags in the second. A
chunk is scored in user blocks, excluded items NaN, and two compare passes into
the flags add, per user, the items scoring above the target by more than its
proven error margin (``_screen_margins``) and those scoring below it by more.
The target's float32 score comes once from an einsum; the margin bounds any
float32 evaluation order, so the GEMM's own score for the target column falls
in neither count, and no block shape or split of the users changes a certified
rank (the halves count at disjoint users). A user whose above-count reaches
``depth`` leaves the scan: its rank is past ``depth``. After the last chunk, a
user whose two counts cover every other candidate (NaN falls in neither) is
certified, for no float64 evaluation of the scores can order the target
differently, and its rank is 1 + the first count. Each user the screen cannot
certify (near-ties, exact ties, scores that could overflow or underflow
float32) is ranked alone by ``_rank_alone``, from the float64 scores
``fe[n_users:] @ fe[u]`` with excluded items NaN, the product a brute-force
sort of that user's scores takes. So every rank depends only on the user's own
row and the item rows, not on the other users, the blocks or the halves.

The ranks stay in one int64 array, which ``evaluate`` and the metric
reductions read as ``rank_all(...).ranks``. ``RankView`` holds only ``.ranks``
and builds ``RankResult(user, rank)`` only when iterated, for the benchmark,
which reads ``.rank``; ROADMAP item 4 deletes the view once it reads ``.ranks``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import SplitDataset


class EvalError(ValueError):
    """Raised for ill-posed ranking or aggregation requests."""


class RankResult(NamedTuple):
    user: int
    rank: int  # 1-based position among candidate items


class RankView:
    """``rank_all``'s read-only int64 ranks (``.ranks``), which iterate as
    ``RankResult(user, rank)`` in user order."""

    __slots__ = ("ranks",)

    def __init__(self, ranks: np.ndarray):
        ranks.flags.writeable = False
        self.ranks = ranks

    def __iter__(self):
        return map(RankResult, range(len(self.ranks)), self.ranks.tolist())


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


def _rank_alone(fe: np.ndarray, ds: SplitDataset, mode: str, u: int) -> int:
    """1-based rank of user u's held-out item by its float64 scores ``fe[n_users:]
    @ fe[u]`` alone: 1 + the candidates scoring above it + the tied candidates
    with a smaller id. Excluded items hold NaN, which is neither above nor equal
    to any score, so they never compete, not even with a target scoring -inf; a
    target scoring NaN (products overflowing to +inf and -inf) raises ``EvalError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = fe[ds.n_users :] @ fe[u]
    t = (ds.validation if mode == "validation" else ds.test)[u]
    if np.isnan(scores[t]):
        raise EvalError(f"user {u}: held-out item {t} scores NaN; its rank is undefined")
    scores[ds.train_items[ds.train_indptr[u] : ds.train_indptr[u + 1]]] = np.nan
    if mode == "test":
        scores[ds.validation[u]] = np.nan
    return 1 + np.count_nonzero(scores > scores[t]) + np.count_nonzero(scores[:t] == scores[t])


def _screen_margins(norms: np.ndarray, n_users: int, d: int) -> np.ndarray:
    """Per-user float32 margins M from the float32 rows' 2-norms ``norms``
    (users first, then items) and the embedding width d: when two items'
    float32 scores for a user differ by more than M, every float64 evaluation
    of the two scores orders them the same way. M is +inf where the screen
    cannot bound the scores.

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
    users, items = norms[:n_users], norms[n_users:].max()
    with np.errstate(over="ignore", invalid="ignore"):
        reach = users * items
        margins = (2.0**-23 * (d + 4 + d * d * 2.0**-23) * reach
                   + 2.0**-123 * (d + np.sqrt(d) * (users + items)))
        margins[~(reach < 2.0**126) | (d > 1 << 20)] = np.inf
        return np.nextafter(margins.astype(np.float32), np.float32(np.inf))


def _blocks(rows: np.ndarray, items: np.ndarray, users: np.ndarray, buffer: np.ndarray,
            owners: np.ndarray, excluded: np.ndarray):
    """Score ``users`` (ascending) against ``items`` in blocks of as many users
    as the flat ``buffer`` holds rows, each block one GEMM of ``rows[part]``
    into the front of ``buffer``, and yield ``(part, block)`` with NaN in the
    cells of the excluded pairs: user ``owners[k]`` (ascending), column
    ``excluded[k]``."""
    width = len(items)
    slot = np.full(len(rows), -1)
    slot[users] = np.arange(len(users))
    at = slot[owners]
    cells = (at * width + excluded)[at >= 0]  # flat cells in the users' rows, ascending
    step = max(1, len(buffer) // width)
    for start in range(0, len(users), step):
        part = users[start : start + step]
        block = buffer[: len(part) * width].reshape(len(part), width)
        with np.errstate(over="ignore", invalid="ignore"):  # such scores go uncertified
            np.matmul(rows[part], items.T, out=block)
        i, j = np.searchsorted(cells, (start * width, (start + len(part)) * width))
        buffer[cells[i:j] - start * width] = np.nan
        yield part, block


# Budget of the one user-by-item score buffer of a rank_all call. The buffer is freed
# when the call returns; a smaller freed buffer lowers glibc's heap-trim threshold, and
# at 4 MiB later training steps page-faulted 4-12x more, so the budget stays at 8 MiB.
# For the same reason the float32 screen blocks are views of the first half of this
# buffer's bytes: a float32 buffer of its own made some later epochs fault up to 6x more.
_BLOCK_BYTES = 8 << 20


def rank_all(fe: np.ndarray, ds: SplitDataset, mode: str, depth: int | None = None) -> RankView:
    """Held-out ranks for every user, ``min(rank, depth + 1)`` when ``depth``
    is given: screened in float32 over item chunks in descending norm order,
    two halves of the users at once, in one reused buffer of at most
    ``_BLOCK_BYTES``; each user it cannot certify is ranked alone in float64.

    Candidates are the items the user has not trained on; in test mode the
    user's validation item is excluded too."""
    if mode not in ("validation", "test"):
        raise EvalError(f"mode must be 'validation' or 'test', got {mode!r}")
    fe = _check_embeddings(fe, ds)
    n_users, n_items = ds.n_users, ds.n_items
    depth = n_items if depth is None else depth  # no rank exceeds n_items
    if depth < 1:
        raise EvalError(f"depth must be >= 1, got {depth}")
    targets = ds.validation if mode == "validation" else ds.test
    room = max(2, min(n_users, _BLOCK_BYTES // (8 * n_items))) * n_items  # a row per screen half
    # the buffer before the float32 copy: the other order made the next training epoch page-fault more
    scores = np.empty(room)
    # the float32 screen blocks fill the first half of its bytes, and their compare flags the second
    screen, mask = scores.view(np.float32)[:room], scores.view(np.bool_)[4 * room :]
    with np.errstate(over="ignore"):  # float32 infinities get an infinite margin
        fe32 = fe.astype(np.float32)
    norms = np.sqrt(np.einsum("ij,ij->i", fe32, fe32, dtype=np.float64))
    margins = _screen_margins(norms, n_users, fe.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # such users are not certified
        target32 = np.einsum("ij,ij->i", fe32[:n_users], fe32[n_users + targets])
        upper = np.nextafter(target32 + margins, np.float32(np.inf))
        lower = np.nextafter(target32 - margins, np.float32(-np.inf))
    order = np.argsort(-norms[n_users:], kind="stable")  # items likeliest to beat a target first
    items32 = fe32[n_users:]
    items32[:] = items32[order]  # in place: no id-ordered item copy stays alive through the scan
    position = np.empty(n_items, dtype=np.int64)
    position[order] = np.arange(n_items)
    counts, excluded = np.diff(ds.train_indptr), ds.train_items
    if mode == "test":  # each user's validation item after its train items
        counts, excluded = counts + 1, np.insert(excluded, ds.train_indptr[1:], ds.validation)
    owners = np.repeat(np.arange(n_users), counts)
    columns = position[excluded]
    # chunk k is positions [bounds[k], bounds[k + 1]): first as many as the screen holds for
    # every user, then doubling the prefix; one chunk when no user can leave early
    bounds = [0, n_items if depth >= n_items else max(1, room // max(n_users, 2))]
    while bounds[-1] < n_items:
        bounds.append(min(2 * bounds[-1], n_items))
    chunk_of = np.repeat(np.arange(1, len(bounds), dtype=np.uint8), np.diff(bounds))[columns]
    by = np.argsort(chunk_of, kind="stable")  # by chunk (k + 1 for chunk k), then by owner
    splits = np.cumsum(np.bincount(chunk_of, minlength=len(bounds)))
    # a uint8 sum into uint16 takes about half the time of int32 and holds any count below 2^16
    count = np.uint16 if n_items < 1 << 16 else np.int32
    above, below = np.zeros(n_users, dtype=count), np.zeros(n_users, dtype=count)

    def scan(users, screen, mask):  # only _blocks and numpy: it also runs on a worker thread
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            chunk = by[splits[k] : splits[k + 1]]
            for part, block in _blocks(fe32[:n_users], items32[lo:hi], users, screen,
                                       owners[chunk], columns[chunk] - lo):
                # neither count takes NaN (excluded) or the target's own column (within its margin)
                flags = mask[: block.size].reshape(block.shape)
                np.greater(block, upper[part, None], out=flags)
                above[part] += np.add.reduce(flags.view(np.uint8), axis=1, dtype=count)
                np.less(block, lower[part, None], out=flags)
                below[part] += np.add.reduce(flags.view(np.uint8), axis=1, dtype=count)
            users = users[above[users] < depth]  # the others rank past depth

    # two halves of the users at once, each in whole rows of its own half of screen and flags
    cut, halves = room // (2 * n_items) * n_items, np.array_split(np.arange(n_users), 2)
    with ThreadPoolExecutor(1) as pool:  # no thread outlives the call
        first = pool.submit(scan, halves[0], screen[:cut], mask[:cut])
        scan(halves[1], screen[cut:], mask[cut:])
        first.result()  # re-raises what the worker raised
    certified = np.isfinite(upper) & np.isfinite(lower) & (above + below == n_items - 1 - counts)
    ranks = 1 + above.astype(np.int64)
    del fe32, items32
    for u in np.flatnonzero(~certified & (above < depth)):
        ranks[u] = _rank_alone(fe, ds, mode, u)
    np.minimum(ranks, depth + 1, out=ranks)
    return RankView(ranks)


def _checked_ranks(ranks, n: int) -> np.ndarray:
    if n < 1:
        raise EvalError(f"N must be >= 1, got {n}")
    ranks = np.asarray(ranks)
    if ranks.ndim != 1:
        raise EvalError(f"expected a 1-D array of ranks, got shape {ranks.shape}")
    if not ranks.size:
        raise EvalError("no ranks to aggregate")
    return ranks


def recall_at_n(ranks, n: int) -> float:
    """Fraction of users whose held-out item ranks within the top n, from
    one 1-based rank per user."""
    ranks = _checked_ranks(ranks, n)
    return np.count_nonzero(ranks <= n) / len(ranks)


def ndcg_at_n(ranks, n: int) -> float:
    """Mean positional gain 1/log2(rank+1) over users, zero past the top n,
    from one 1-based rank per user."""
    ranks = _checked_ranks(ranks, n)
    gains = 1.0 / np.log2(ranks[ranks <= n] + 1.0)
    # summed left to right in user order (np.sum pairs terms and differs in the last bits)
    total = np.cumsum(gains)[-1] if gains.size else 0.0
    return float(total / len(ranks))


def evaluate(fe: np.ndarray, ds: SplitDataset, mode: str, n_values) -> MetricsReport:
    """Rank every user's held-out item (``rank_all``: train items excluded, and
    the validation item in test mode) as deep as the largest N, and aggregate
    both metrics per N."""
    n_values = [int(n) for n in n_values]
    if not n_values or min(n_values) < 1:
        raise EvalError(f"cutoffs N must be a non-empty list of N >= 1, got {n_values}")
    ranks = rank_all(fe, ds, mode, depth=max(n_values)).ranks
    return MetricsReport(
        n_values=n_values,
        recall=[recall_at_n(ranks, n) for n in n_values],
        ndcg=[ndcg_at_n(ranks, n) for n in n_values],
        users_evaluated=len(ranks),
    )


def write_metrics_csv(path, entries) -> None:
    """CSV rows 'mode,N,recall,ndcg,users' for (mode, MetricsReport) pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode,N,recall,ndcg,users\n")
        for mode, report in entries:
            for n, recall, ndcg in zip(report.n_values, report.recall, report.ndcg):
                fh.write(f"{mode},{n},{float(recall)!r},{float(ndcg)!r},{report.users_evaluated}\n")
