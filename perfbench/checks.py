"""Correctness checks computed apart from the program.

Each ``check_*`` function raises :class:`CheckFailed` with a message naming
what differs. The references here are built from the generator's truth file
with numpy and ``scipy.sparse`` only; they never call into ``odecf``, so a
fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

EMBEDDING_RTOL = 1e-9  # of max |embedding|; far below the 1e-6 perturbation it must catch
ADJACENCY_ATOL = 1e-14
GRADIENT_RTOL = 1e-5  # the README's finite-difference tolerance
# A unit direction spread over ~1e5 coordinates moves each by ~3e-6 at step
# 1e-3; a single coordinate takes the step itself. Both keep the central
# difference's relative error near 1e-9 on this program's losses.
DIRECTION_STEP = 1e-3
COORDINATE_STEP = 1e-6


class CheckFailed(AssertionError):
    """Raised when a program output disagrees with its independent reference."""


def _fail_if(condition, message):
    if condition:
        raise CheckFailed(message)


def _key_ids(keys, prefix):
    return np.fromiter((int(k[len(prefix):]) for k in keys), dtype=np.int64, count=len(keys))


def log_arrays(log):
    """(user id, item id, time) arrays of an ``InteractionLog``, sorted by (user, item)."""
    rows = log.interactions
    u = _key_ids([r.user_key for r in rows], "u")
    i = _key_ids([r.item_key for r in rows], "i")
    t = np.fromiter((r.timestamp for r in rows), dtype=np.int64, count=len(rows))
    order = np.lexsort((i, u))
    return u[order], i[order], t[order]


def _sorted_truth(truth, mask=None):
    u, i, t = truth["users"], truth["items"], truth["times"]
    if mask is not None:
        u, i, t = u[mask], i[mask], t[mask]
    order = np.lexsort((i, u))
    return u[order], i[order], t[order]


def _same_triples(got, want, what):
    for name, a, b in zip(("users", "items", "times"), got, want):
        _fail_if(a.shape != b.shape, f"{what}: {a.size} rows, expected {b.size}")
        _fail_if(not np.array_equal(a, b), f"{what}: {name} differ from the reference")


def check_parse(stats, log, truth):
    """Counts equal the planted ones; the deduplicated pairs keep their earliest time."""
    for field in ("parsed", "duplicates", "malformed"):
        got, want = int(getattr(stats, field)), int(truth[field])
        _fail_if(got != want, f"parse: {field}={got}, generator planted {want}")
    _same_triples(log_arrays(log), _sorted_truth(truth), "parse")


def peel(users, items, k):
    """Joint k-core by synchronous degree rounds; returns the survivor mask."""
    alive = np.ones(users.size, dtype=bool)
    while True:
        du = np.bincount(users[alive], minlength=users.max() + 1)
        di = np.bincount(items[alive], minlength=items.max() + 1)
        keep = alive & (du[users] >= k) & (di[items] >= k)
        if keep.sum() == alive.sum():
            return keep
        alive = keep


def check_kcore(kept_log, truth, alive):
    """Survivors equal the independent peel ``alive``; every survivor has degree >= k."""
    k = int(truth["k"])
    got = log_arrays(kept_log)
    _same_triples(got, _sorted_truth(truth, alive), "k-core")
    u, i, _ = got
    _fail_if(np.bincount(u)[np.unique(u)].min() < k, "k-core: a surviving user has degree < k")
    _fail_if(np.bincount(i)[np.unique(i)].min() < k, "k-core: a surviving item has degree < k")
    _fail_if(np.isin(truth["sub_k_users"], u).any(), "k-core: a planted sub-k user survived")
    _fail_if(np.isin(truth["rare_items"], i).any(), "k-core: a planted sub-k item survived")


def expected_split(truth, alive):
    """Reference leave-one-out split over the survivors.

    Returns (user keys, item keys, train users, train items, validation, test),
    ids in sorted-key order and train pairs in chronological order per user.
    """
    u, i, t = truth["users"][alive], truth["items"][alive], truth["times"][alive]
    user_keys = sorted({f"u{x}" for x in np.unique(u).tolist()})
    item_keys = sorted({f"i{x}" for x in np.unique(i).tolist()})
    user_id = {int(key[1:]): n for n, key in enumerate(user_keys)}
    item_id = {int(key[1:]): n for n, key in enumerate(item_keys)}
    du = np.array([user_id[x] for x in u.tolist()], dtype=np.int64)
    di = np.array([item_id[x] for x in i.tolist()], dtype=np.int64)
    # dense item ids follow key order, so they break time ties like the keys do
    order = np.lexsort((di, t, du))
    du, di = du[order], di[order]
    last = np.flatnonzero(np.r_[du[1:] != du[:-1], True])
    validation, test = di[last - 1], di[last]
    in_train = np.ones(du.size, dtype=bool)
    in_train[last] = False
    in_train[last - 1] = False
    return user_keys, item_keys, du[in_train], di[in_train], validation, test


def check_split(ds, reference):
    """Validation and test are each user's last two by (time, item key)."""
    user_keys, item_keys, tu, ti, validation, test = reference
    _fail_if(sorted(ds.user_index, key=ds.user_index.get) != user_keys,
             "split: user ids are not in sorted-key order of the survivors")
    _fail_if(sorted(ds.item_index, key=ds.item_index.get) != item_keys,
             "split: item ids are not in sorted-key order of the survivors")
    _fail_if(not np.array_equal(np.asarray(ds.validation), validation),
             "split: a validation item is not the user's second-last interaction")
    _fail_if(not np.array_equal(np.asarray(ds.test), test),
             "split: a test item is not the user's last interaction")
    got = np.concatenate([np.asarray(items, dtype=np.int64) for items in ds.train])
    _fail_if(not np.array_equal(got, ti), "split: train lists differ from the chronological reference")


def reference_adjacency(n_users, n_items, train_users, train_items):
    """D^-1/2 [[0, R], [R^T, 0]] D^-1/2 over train edges, with empty rows for isolated items."""
    r = sp.csr_matrix((np.ones(train_users.size), (train_users, train_items)),
                      shape=(n_users, n_items))
    du = np.asarray(r.sum(axis=1)).ravel()
    di = np.asarray(r.sum(axis=0)).ravel()
    inv_u = sp.diags(1.0 / np.sqrt(du))
    inv_i = sp.diags(np.where(di > 0, 1.0 / np.sqrt(np.maximum(di, 1)), 0.0))
    rn = inv_u @ r @ inv_i
    return sp.bmat([[None, rn], [rn.T, None]], format="csr")


def check_adjacency(adj_csr, ref):
    _fail_if(adj_csr.shape != ref.shape, f"adjacency: shape {adj_csr.shape}, expected {ref.shape}")
    a, b = adj_csr.tocsr(), ref.tocsr()
    a.sort_indices()
    b.sort_indices()
    _fail_if(a.nnz != b.nnz or not np.array_equal(a.indptr, b.indptr)
             or not np.array_equal(a.indices, b.indices),
             "adjacency: sparsity pattern differs from D_u^-1/2 R D_i^-1/2")
    worst = float(np.abs(a.data - b.data).max()) if a.nnz else 0.0
    _fail_if(worst > ADJACENCY_ATOL, f"adjacency: values differ by {worst:.3e}")


def reference_embeddings(workload, a, e0, hop_weights=None):
    """The workload's polynomial in ``a`` applied to ``e0``.

    Euler: (I + hL) per step. RK4: sum_{j<=4} (hL)^j / j! per step. Both with
    L = c A^hops - I and c the product of the hop weights. LightGCN:
    sum_l w_l A^l e0 with uniform w.
    """
    e0 = np.asarray(e0, dtype=np.float64)
    if workload.model == "lightgcn":
        w = 1.0 / (workload.n_layers + 1)
        acc, cur = w * e0, e0
        for _ in range(workload.n_layers):
            cur = a @ cur
            acc = acc + w * cur
        return acc
    c = 1.0 if hop_weights is None else float(np.prod(hop_weights))
    h = workload.t1 / workload.steps

    def hl(x):
        y = x
        for _ in range(workload.n_hops):
            y = a @ y
        return h * (c * y - x)

    order = 1 if workload.method == "euler" else 4
    e = e0
    for _ in range(workload.steps):
        term, acc = e, e
        for j in range(1, order + 1):
            term = hl(term) / j  # (hL)^j e / j!
            acc = acc + term
        e = acc
    return e


def check_embeddings(fe, expected):
    fe = np.asarray(fe)
    _fail_if(fe.shape != expected.shape, f"embeddings: shape {fe.shape}, expected {expected.shape}")
    _fail_if(not np.isfinite(fe).all(), "embeddings: non-finite values")
    scale = max(1.0, float(np.abs(expected).max()))
    worst = float(np.abs(fe - expected).max())
    _fail_if(worst > EMBEDDING_RTOL * scale,
             f"embeddings: differ from the polynomial in A by {worst:.3e}")


def _central_difference(loss_at, x0, direction, step):
    return (loss_at(x0 + step * direction) - loss_at(x0 - step * direction)) / (2.0 * step)


def check_gradient(loss_at, grad, x0, rng, coordinates=()):
    """Central differences of ``loss_at`` agree with ``grad`` within GRADIENT_RTOL, relative.

    One difference runs along a random unit direction drawn from ``rng``. It
    does not depend on ``grad``, so a wrong or missing block of the gradient
    moves the comparison at first order. Each index in ``coordinates`` (the hop
    weights) is also differenced on its own. Returns the worst relative error.
    """
    _fail_if(not np.isfinite(grad).all(), "gradient: non-finite values")
    v = rng.standard_normal(x0.size)
    v /= np.linalg.norm(v)
    probes = [("a random direction", v, DIRECTION_STEP)]
    for k in coordinates:
        unit = np.zeros(x0.size)
        unit[k] = 1.0
        probes.append((f"coordinate {k}", unit, COORDINATE_STEP))
    worst = 0.0
    for what, direction, step in probes:
        analytic = float(grad @ direction)
        fd = _central_difference(loss_at, x0, direction, step)
        rel = abs(analytic - fd) / abs(fd) if fd else np.inf
        _fail_if(not rel < GRADIENT_RTOL,
                 f"gradient along {what}: analytic {analytic!r} vs central difference {fd!r} "
                 f"(rel {rel:.3e})")
        worst = max(worst, rel)
    return worst


def check_fit(history, epochs, test_ndcg, initial_ndcg):
    ran = [r.epoch for r in history]
    _fail_if(ran != list(range(1, epochs + 1)),
             f"fit: ran epochs {ran[:3]}..{ran[-3:]} ({len(ran)}), {epochs} requested")
    _fail_if(not history[-1].loss < history[0].loss,
             f"fit: last epoch loss {history[-1].loss!r} is not below the first {history[0].loss!r}")
    _fail_if(not test_ndcg > initial_ndcg,
             f"fit: test NDCG@20 {test_ndcg!r} does not beat the untrained {initial_ndcg!r}")


def brute_force_rank(fe, n_users, train_items, excluded_extra, user, target):
    """Rank by a full sort: score descending, then item id ascending, exclusions removed."""
    scores = fe[n_users:] @ fe[user]
    candidates = np.ones(scores.size, dtype=bool)
    candidates[list(train_items)] = False
    candidates[list(excluded_extra)] = False
    ids = np.flatnonzero(candidates)
    order = ids[np.lexsort((ids, -scores[ids]))]
    return int(np.flatnonzero(order == target)[0]) + 1


def check_ranks(fe, ds, ranks, users, mode="test"):
    """``ranks[u]`` equals the brute-force rank of u's held-out item for each sampled user."""
    fe = np.asarray(fe, dtype=np.float64)
    targets = ds.test if mode == "test" else ds.validation
    for u in users:
        extra = [ds.validation[u]] if mode == "test" else []
        want = brute_force_rank(fe, ds.n_users, ds.train[u], extra, u, targets[u])
        _fail_if(int(ranks[u]) != want, f"ranks: user {u} ranked {ranks[u]}, full sort gives {want}")
