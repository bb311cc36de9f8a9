import numpy as np
import pytest

from odecf.data import SplitDataset, synthetic_split
from odecf.graph import build_adjacency
from odecf.model import ModelState, SolverConfig, init_embeddings


@pytest.fixture
def toy_ds():
    """Separable 2-user/4-item instance.

    Both users train on item 0, so the graph links them; each user's
    validation item is the other user's private train item, and item 3 is
    everyone's held-out test item (hence train-isolated).
    """
    return SplitDataset(
        n_users=2,
        n_items=4,
        train_indptr=np.array([0, 2, 4]),
        train_items=np.array([0, 1, 0, 2]),
        validation=np.array([2, 1]),
        test=np.array([3, 3]),
        user_index={"u0": 0, "u1": 1},
        item_index={f"i{i}": i for i in range(4)},
    )


@pytest.fixture
def small_ds():
    return synthetic_split(n_users=6, n_items=8, seed=11, min_train=3, max_train=4)


@pytest.fixture
def small_adj(small_ds):
    return build_adjacency(small_ds)


def make_state(ds, method="euler", t1=0.9, steps=1, n_hops=2, use_weights=False,
               dims=4, std=0.5, seed=0, allow_isolated_items=False):
    adjacency = build_adjacency(ds, allow_isolated_items=allow_isolated_items)
    solver = SolverConfig(method=method, t1=t1, steps=steps, n_hops=n_hops,
                          use_weights=use_weights)
    e0 = init_embeddings(ds.n_users + ds.n_items, dims, std, seed)
    return ModelState.create(e0, adjacency, solver)


def lightgcn_state(e0, adjacency, n_hops):
    """The LightGCN baseline's state: the mean of A^0 e0 .. A^K e0 with K = ``n_hops``."""
    return ModelState.create(e0, adjacency, SolverConfig(method="lightgcn", n_hops=n_hops))


def dense_hops(adj_dense, emb, n_hops, weights=None):
    """Dense reference for the propagation chain."""
    x = emb
    for k in range(n_hops):
        x = adj_dense @ x
        if weights is not None:
            x = weights[k] * x
    return x
