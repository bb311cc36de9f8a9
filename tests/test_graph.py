import numpy as np
import pytest
import scipy.sparse as sp

from odecf.data import SplitDataset, synthetic_split
from odecf.graph import GraphError, SparseAdjacency, build_adjacency, spmm


def simple_ds(train, n_items, validation=None, test=None):
    n_users = len(train)
    return SplitDataset(
        n_users=n_users,
        n_items=n_items,
        train_indptr=np.cumsum([0] + [len(t) for t in train]),
        train_items=np.array([i for t in train for i in t], dtype=np.int64),
        validation=np.array(validation or [0] * n_users),
        test=np.array(test or [0] * n_users),
        user_index={f"u{u}": u for u in range(n_users)},
        item_index={f"i{i}": i for i in range(n_items)},
    )


def zero_adjacency(n_nodes, n_users):
    return SparseAdjacency(n_users=n_users, matrix=sp.csr_matrix((n_nodes, n_nodes)))


class TestBuildAdjacency:
    def test_single_edge(self):
        adj = build_adjacency(simple_ds([[0]], 1))
        dense = adj.to_scipy().toarray()
        assert dense.shape == (2, 2)
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
        assert dense[0, 0] == 0.0 and dense[1, 1] == 0.0

    def test_hand_computed_degrees(self):
        # u0-{i0,i1}, u1-{i0}: deg(u0)=2, deg(u1)=1, deg(i0)=2, deg(i1)=1
        adj = build_adjacency(simple_ds([[0, 1], [0]], 2))
        dense = adj.to_scipy().toarray()
        assert dense[0, 2] == pytest.approx(0.5, abs=1e-15)  # 1/sqrt(2*2)
        assert dense[0, 3] == pytest.approx(0.7071067811865476, abs=1e-15)
        assert dense[1, 2] == pytest.approx(0.7071067811865476, abs=1e-15)
        assert dense[1, 3] == 0.0

    def test_structural_symmetry_and_bipartite_blocks(self):
        ds = synthetic_split(n_users=9, n_items=12, seed=0)
        adj = build_adjacency(ds)
        dense = adj.to_scipy().toarray()
        assert np.array_equal(dense, dense.T)
        n = ds.n_users
        assert not dense[:n, :n].any()
        assert not dense[n:, n:].any()

    def test_row_sum_bound_and_spectral_radius(self):
        ds = synthetic_split(n_users=10, n_items=9, seed=3)
        adj = build_adjacency(ds)
        dense = adj.to_scipy().toarray()
        degrees = (dense > 0).sum(axis=1)
        assert np.abs(dense).sum(axis=1).max() <= np.sqrt(degrees.max()) + 1e-12
        # power iteration oracle for the spectral radius
        rng = np.random.default_rng(0)
        x = rng.normal(size=adj.n_nodes)
        for _ in range(500):
            x = dense @ x
            x /= np.linalg.norm(x)
        rho = abs(x @ (dense @ x))
        assert rho <= 1.0 + 1e-9

    def test_isolated_item_errors_unless_allowed(self):
        ds = simple_ds([[0, 1], [0, 1]], 3, validation=[2, 0], test=[1, 2])
        with pytest.raises(GraphError, match="item 2"):
            build_adjacency(ds)
        adj = build_adjacency(ds, allow_isolated_items=True)
        dense = adj.to_scipy().toarray()
        assert not dense[2 + 2].any() and not dense[:, 2 + 2].any()

    def test_sorted_columns_within_rows(self):
        ds = synthetic_split(n_users=8, n_items=10, seed=7)
        adj = build_adjacency(ds)
        csr = adj.to_scipy()
        for row in range(adj.n_nodes):
            cols = csr.indices[csr.indptr[row] : csr.indptr[row + 1]]
            assert np.all(np.diff(cols) > 0)


class TestSpmm:
    def test_permutation_example(self):
        adj = build_adjacency(simple_ds([[0]], 1))
        out = spmm(adj, np.eye(2))
        assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_zero_matrix(self):
        adj = zero_adjacency(5, 2)
        emb = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(spmm(adj, emb), np.zeros((5, 3)))

    def test_matches_dense_oracle(self):
        ds = synthetic_split(n_users=3, n_items=3, seed=2, min_train=1, max_train=1)
        adj = build_adjacency(ds, allow_isolated_items=True)
        dense = adj.to_scipy().toarray()
        emb = np.random.default_rng(1).normal(size=(adj.n_nodes, 5))
        assert np.abs(spmm(adj, emb) - dense @ emb).max() < 1e-12

    def test_linearity(self):
        ds = synthetic_split(n_users=7, n_items=6, seed=4)
        adj = build_adjacency(ds)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(adj.n_nodes, 4))
        y = rng.normal(size=(adj.n_nodes, 4))
        lhs = spmm(adj, 1.3 * x - 0.7 * y)
        rhs = 1.3 * spmm(adj, x) - 0.7 * spmm(adj, y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_bipartite_cross_dependence(self):
        ds = synthetic_split(n_users=6, n_items=7, seed=5)
        adj = build_adjacency(ds)
        n = adj.n_users
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(adj.n_nodes, 3))
        bumped = emb.copy()
        bumped[:n] += rng.normal(size=(n, 3))  # change only user rows
        out, out_bumped = spmm(adj, emb), spmm(adj, bumped)
        assert np.array_equal(out[:n], out_bumped[:n])      # user rows read item rows only
        assert not np.array_equal(out[n:], out_bumped[n:])

    def test_symmetry_via_basis_vectors(self):
        ds = synthetic_split(n_users=5, n_items=5, seed=6)
        adj = build_adjacency(ds)
        eye = np.eye(adj.n_nodes)
        prod = spmm(adj, eye)
        for a, b in [(0, 6), (2, 8), (1, 3)]:
            assert prod[a, b] == prod[b, a]

    def test_dimension_mismatch(self):
        adj = build_adjacency(simple_ds([[0]], 1))
        with pytest.raises(GraphError):
            spmm(adj, np.zeros((3, 2)))
        with pytest.raises(GraphError):
            spmm(adj, np.zeros(2))

