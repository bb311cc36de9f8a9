"""Symmetric-normalized bipartite adjacency in CSR form and the sparse-dense product.

Embedding matrices are plain float64 ndarrays of shape (n_nodes, dims): user
rows occupy [0, n_users), item rows [n_users, n_nodes). The adjacency is one
scipy CSR matrix, assembled from the normalized user x item block and its
transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import SplitDataset, train_pairs


class GraphError(ValueError):
    """Raised for ill-posed graph construction or mismatched products."""


@dataclass(frozen=True, eq=False)
class SparseAdjacency:
    """Symmetric adjacency over user+item nodes, held as one scipy CSR matrix.

    Column indices are ascending within each row, which fixes the summation
    order of the multiply kernel. Entry (u, n_users+i) holds
    1/sqrt(deg(u)*deg(i)) over train-set degrees; the matrix is structurally
    symmetric and strictly bipartite. Instances are immutable after
    construction and safe to share across threads.
    """

    n_users: int
    matrix: sp.csr_matrix

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def to_scipy(self) -> sp.csr_matrix:
        return self.matrix


def build_adjacency(ds: SplitDataset, allow_isolated_items: bool = False) -> SparseAdjacency:
    """Build the normalized adjacency from the train partition only.

    Validation/test edges never enter the graph. A user or item without any
    train interaction leaves its normalization undefined and raises, unless
    ``allow_isolated_items`` is set, in which case such items simply get an
    empty row (they receive and contribute nothing during propagation).
    """
    n, m = ds.n_users, ds.n_items
    users, items = train_pairs(ds)
    if users.size == 0:
        raise GraphError("train partition is empty")

    user_deg = np.diff(ds.train_indptr)
    item_deg = np.bincount(items, minlength=m).astype(np.int64)
    if (user_deg == 0).any():
        bad = int(np.argmax(user_deg == 0))
        raise GraphError(f"user {bad} has no training interactions; normalization undefined")
    if (item_deg == 0).any() and not allow_isolated_items:
        bad = int(np.argmax(item_deg == 0))
        raise GraphError(f"item {bad} has no training interactions; normalization undefined")

    weights = 1.0 / np.sqrt(user_deg[users].astype(np.float64) * item_deg[items].astype(np.float64))
    block = sp.csr_matrix((weights, (users, items)), shape=(n, m))
    full = sp.bmat([[None, block], [block.T, None]], format="csr")  # canonical: columns ascending
    return SparseAdjacency(n_users=n, matrix=full)


def spmm(adj: SparseAdjacency, emb: np.ndarray) -> np.ndarray:
    """Exact sparse-times-dense product A @ E.

    Each output row accumulates its nonzeros in ascending column order, so
    results are bit-reproducible run to run.
    """
    emb = np.asarray(emb, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != adj.n_nodes:
        raise GraphError(
            f"embedding shape {emb.shape} does not match adjacency over {adj.n_nodes} nodes"
        )
    return adj.matrix @ emb

