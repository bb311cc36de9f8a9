from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import dense_hops, make_state
from odecf.graph import build_adjacency
from odecf.model import (
    LightGCNState,
    ModelError,
    ModelState,
    SolverConfig,
    SolverError,
    final_embeddings,
    init_embeddings,
    lightgcn_forward,
    model_backward,
    model_forward,
)

from test_graph import simple_ds, zero_adjacency


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ModelError):
            SolverConfig(method="midpoint")
        with pytest.raises(ModelError):
            SolverConfig(t1=0.0)
        with pytest.raises(ModelError):
            SolverConfig(steps=0)
        with pytest.raises(ModelError):
            SolverConfig(n_hops=0)
        assert SolverConfig(t1=0.8, steps=4).step_size == pytest.approx(0.2)

    def test_state_weight_consistency(self):
        adj = build_adjacency(simple_ds([[0]], 1))
        e0 = np.zeros((2, 2))
        with pytest.raises(ModelError):
            ModelState(e0=e0, hop_weights=np.ones(2), adjacency=adj,
                       solver=SolverConfig(n_hops=2))
        with pytest.raises(ModelError):
            ModelState(e0=e0, hop_weights=None, adjacency=adj,
                       solver=SolverConfig(n_hops=2, use_weights=True))


def unit_euler_gain(emb, state):
    """g(E) = c A^K E - E, read off one Euler step with t1 = 1: E + g(E) - E."""
    unit = ModelState(e0=emb, hop_weights=state.hop_weights, adjacency=state.adjacency,
                      solver=replace(state.solver, method="euler", t1=1.0, steps=1))
    return final_embeddings(unit) - emb


class TestDerivative:
    def test_zero_adjacency_negates(self):
        adj = zero_adjacency(4, 2)
        e0 = np.random.default_rng(0).normal(size=(4, 3))
        state = ModelState.create(e0, adj, SolverConfig(n_hops=1))
        assert np.array_equal(unit_euler_gain(e0, state), -e0)

    def test_eigenvector_scaling(self, small_adj):
        lam, vecs = np.linalg.eigh(small_adj.to_scipy().toarray())
        k = np.argmax(np.abs(lam))  # well-separated leading eigenpair
        emb = np.tile(vecs[:, k : k + 1], (1, 3))
        state = ModelState(e0=emb, hop_weights=None, adjacency=small_adj,
                           solver=SolverConfig(n_hops=1))
        out = unit_euler_gain(emb, state)
        assert np.abs(out - (lam[k] - 1.0) * emb).max() < 1e-12

    def test_weighted_two_hops_vs_dense_oracle(self, small_ds):
        state = make_state(small_ds, n_hops=2, use_weights=True, seed=5)
        state.hop_weights[:] = [1.3, 0.8]
        dense = state.adjacency.to_scipy().toarray()
        g = unit_euler_gain(state.e0, state)
        oracle = dense_hops(dense, state.e0, 2, [1.3, 0.8]) - state.e0
        assert np.abs(g - oracle).max() < 1e-12

    def test_algebraic_identity_any_input(self, small_ds):
        # g(E) = P(E) - E for arbitrary E, not only the trained state
        state = make_state(small_ds, n_hops=3)
        rng = np.random.default_rng(8)
        emb = rng.normal(size=state.e0.shape)
        dense = state.adjacency.to_scipy().toarray()
        expected = np.linalg.matrix_power(dense, 3) @ emb - emb
        assert np.abs(unit_euler_gain(emb, state) - expected).max() < 1e-12

    def test_dimension_mismatch(self, small_ds):
        state = make_state(small_ds)
        with pytest.raises(ModelError):
            unit_euler_gain(np.zeros((3, 4)), state)


class TestIntegrate:
    def test_zero_length_integration(self, small_ds):
        state = make_state(small_ds, t1=1e-30, steps=1, n_hops=1)
        assert np.abs(final_embeddings(state) - state.e0).max() < 1e-12

    def test_euler_unit_step_is_residual_connection(self, small_ds):
        state = make_state(small_ds, method="euler", t1=1.0, steps=1, n_hops=1, std=1.0)
        dense = state.adjacency.to_scipy().toarray()
        residual = state.e0 + (dense @ state.e0 - state.e0)
        assert np.abs(final_embeddings(state) - residual).max() <= 1e-15

    @pytest.mark.parametrize("n_hops", [1, 2])
    def test_rk4_converges_to_matrix_exponential(self, small_ds, n_hops):
        # tolerance derived from the RK4 stability function: one step of size h
        # on a mode z=lambda*h errs by |R4(z)-e^z| <= |z|^5/120, |lambda|<=2
        state = make_state(small_ds, method="rk4", t1=0.9, steps=1, n_hops=n_hops, std=1.0)
        dense = state.adjacency.to_scipy().toarray()
        gen = np.linalg.matrix_power(dense, n_hops) - np.eye(state.adjacency.n_nodes)
        exact = expm(gen * 0.9) @ state.e0
        bound = (2 * 0.9) ** 5 / 120 * np.abs(state.e0).max() * state.e0.shape[0]
        assert np.abs(final_embeddings(state) - exact).max() < bound
        fine = make_state(small_ds, method="rk4", t1=0.9, steps=100, n_hops=n_hops, std=1.0)
        assert np.abs(final_embeddings(fine) - exact).max() < 1e-8

    def test_high_resolution_euler_matches_exact(self, small_ds):
        state = make_state(small_ds, method="euler", t1=0.7, steps=100000, n_hops=1, std=1.0)
        dense = state.adjacency.to_scipy().toarray()
        exact = expm((dense - np.eye(dense.shape[0])) * 0.7) @ state.e0
        assert np.abs(final_embeddings(state) - exact).max() < 1e-4

    def test_homogeneity(self, small_ds):
        base = make_state(small_ds, method="rk4", steps=2, n_hops=2, std=1.0)
        scaled = ModelState.create(2.7 * base.e0, base.adjacency, base.solver)
        assert np.abs(final_embeddings(scaled) - 2.7 * final_embeddings(base)).max() < 1e-10

    def test_unit_weights_match_weightless_bitwise(self, small_ds):
        for method in ("euler", "rk4"):
            plain = make_state(small_ds, method=method, steps=2, n_hops=2)
            weighted = make_state(small_ds, method=method, steps=2, n_hops=2,
                                  use_weights=True)
            assert np.array_equal(final_embeddings(weighted), final_embeddings(plain))

    @pytest.mark.parametrize("method,nominal", [("euler", 1.0), ("rk4", 4.0)])
    def test_convergence_order(self, small_ds, method, nominal):
        # measured in the asymptotic regime (small t1); the spectrum of the
        # generator reaches -2, so |z| must stay well below 1 at steps=1
        t1 = 0.2
        state = make_state(small_ds, method=method, t1=t1, steps=1, n_hops=1, std=1.0)
        dense = state.adjacency.to_scipy().toarray()
        exact = expm((dense - np.eye(dense.shape[0])) * t1) @ state.e0
        errs = []
        for steps in (1, 2, 4, 8):
            st = make_state(small_ds, method=method, t1=t1, steps=steps, n_hops=1, std=1.0)
            errs.append(np.abs(final_embeddings(st) - exact).max())
        slope = -np.polyfit(np.log2([1, 2, 4, 8]), np.log2(errs), 1)[0]
        assert abs(slope - nominal) < 0.3

    def test_divergence_raises(self, small_ds):
        # h=100 amplifies the -2 spectral mode by ~199 per step, overflowing
        # float64 midway through the grid
        state = make_state(small_ds, method="euler", t1=20000.0, steps=200,
                           n_hops=1, std=1.0)
        with pytest.raises(SolverError, match="divergent"):
            final_embeddings(state)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_ctx_is_one_matrix_only_when_weights_train(self, small_ds, method):
        for use_weights in (False, True):
            state = make_state(small_ds, method=method, steps=3, n_hops=2, use_weights=use_weights)
            fe, ctx = model_forward(state)
            assert np.array_equal(fe, final_embeddings(state))
            if use_weights:
                assert isinstance(ctx, np.ndarray) and ctx.shape == state.e0.shape
            else:
                assert ctx is None

    def test_weighted_backward_needs_ctx(self, small_ds):
        state = make_state(small_ds, use_weights=True)
        with pytest.raises(ModelError, match="ctx"):
            model_backward(state, None, np.ones_like(state.e0))


class TestLightGCN:
    def test_zero_layers(self, small_adj):
        e0 = np.random.default_rng(0).normal(size=(small_adj.n_nodes, 3))
        out = lightgcn_forward(e0, small_adj, 0)
        assert np.array_equal(out, 1.0 * e0)

    def test_matches_dense_oracle(self, small_adj):
        e0 = np.random.default_rng(1).normal(size=(small_adj.n_nodes, 4))
        dense = small_adj.to_scipy().toarray()
        out = lightgcn_forward(e0, small_adj, 2)
        oracle = (e0 + dense @ e0 + dense @ (dense @ e0)) / 3.0
        assert np.abs(out - oracle).max() < 1e-12

    def test_zero_adjacency_keeps_layer_zero_only(self):
        adj = zero_adjacency(6, 3)
        e0 = np.random.default_rng(2).normal(size=(6, 2))
        assert np.array_equal(lightgcn_forward(e0, adj, 3), 0.25 * e0)

    def test_negative_layer_count_rejected(self, small_adj):
        e0 = np.zeros((small_adj.n_nodes, 2))
        with pytest.raises(ModelError, match="layer count"):
            lightgcn_forward(e0, small_adj, -1)
        with pytest.raises(ModelError, match="layer count"):
            final_embeddings(LightGCNState.create(e0, small_adj, -1))

    def test_state_forward_dispatch(self, small_adj):
        e0 = np.random.default_rng(3).normal(size=(small_adj.n_nodes, 3))
        state = LightGCNState.create(e0, small_adj, 2)
        fe, ctx = model_forward(state)
        assert np.array_equal(fe, lightgcn_forward(e0, small_adj, 2))
        assert ctx is None
        assert np.array_equal(final_embeddings(state), fe)

    def test_non_finite_input_raises(self, small_adj):
        e0 = np.full((small_adj.n_nodes, 3), np.nan)
        with pytest.raises(SolverError, match="non-finite"):
            lightgcn_forward(e0, small_adj, 2)


class TestInitEmbeddings:
    def test_seed_determinism(self):
        a = init_embeddings(50, 8, 0.1, 123)
        b = init_embeddings(50, 8, 0.1, 123)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, init_embeddings(50, 8, 0.1, 124))

    def test_sample_std(self):
        emb = init_embeddings(10000, 100, 0.1, 7)
        assert 0.099 <= emb.std() <= 0.101
        assert abs(emb.mean()) < 5 * 0.1 / np.sqrt(emb.size)

    def test_validation(self):
        with pytest.raises(ModelError):
            init_embeddings(10, 0, 0.1, 0)
        with pytest.raises(ModelError):
            init_embeddings(10, 4, 0.0, 0)
