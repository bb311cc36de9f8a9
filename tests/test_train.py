import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import expit

import odecf.model

from conftest import (
    BLAS_THREAD_VARIABLES,
    lightgcn_state,
    make_state,
    run_fresh,
    two_blas_threads,
)
from odecf.cli import load_checkpoint, save_checkpoint, write_training_log
from odecf.data import synthetic_split, train_pairs
from odecf.evaluation import evaluate
from odecf.graph import build_adjacency
from odecf.model import (
    SolverError,
    final_embeddings,
    init_embeddings,
    model_backward,
    model_forward,
)
from odecf.train import (
    OptimizerState,
    TrainConfig,
    TrainError,
    TripletBatch,
    adam_step,
    backward,
    batch_loss,
    bpr_loss,
    epoch_triplets,
    finite_difference_check,
    fit,
    loss_and_grads,
    sample_triplets,
)

from test_graph import simple_ds, zero_adjacency


def make_batch(users, pos, neg):
    return TripletBatch(np.asarray(users, dtype=np.int64),
                        np.asarray(pos, dtype=np.int64),
                        np.asarray(neg, dtype=np.int64))


def model_state(ds, model, dims=4):
    """``euler``, ``rk4``, their ``-weighted`` variants (2 steps, 2 hops) or a 3-layer ``lightgcn``."""
    if model == "lightgcn":
        adj = build_adjacency(ds)
        return lightgcn_state(init_embeddings(adj.n_nodes, dims, 0.5, 1), adj, 3)
    method, _, weighted = model.partition("-")
    return make_state(ds, method=method, steps=2, n_hops=2, use_weights=bool(weighted),
                      dims=dims)


class TestSampling:
    def test_forced_negative(self):
        ds = simple_ds([[0]], 2, validation=[1], test=[1])
        batch = sample_triplets(ds, 50, np.random.default_rng(0))
        assert np.all(batch.users == 0)
        assert np.all(batch.pos_items == 0)
        assert np.all(batch.neg_items == 1)

    def test_seed_determinism(self, small_ds):
        a = sample_triplets(small_ds, 64, np.random.default_rng(42))
        b = sample_triplets(small_ds, 64, np.random.default_rng(42))
        for x, y in zip((a.users, a.pos_items, a.neg_items),
                        (b.users, b.pos_items, b.neg_items)):
            assert np.array_equal(x, y)

    def test_negatives_never_positives(self, small_ds):
        batch = sample_triplets(small_ds, 500, np.random.default_rng(1))
        sets = [set(items) for items in small_ds.train]
        for u, j in zip(batch.users, batch.neg_items):
            assert int(j) not in sets[int(u)]

    def test_negative_uniformity(self):
        # single user with fixed positives: negative counts should be uniform
        # over the 95 non-positives within 5 sigma
        n_items = 100
        ds = simple_ds([[0, 1, 2, 3, 4]], n_items, validation=[5], test=[6])
        draws = 100000
        batch = sample_triplets(ds, draws, np.random.default_rng(3))
        counts = np.bincount(batch.neg_items, minlength=n_items)
        assert counts[:5].sum() == 0
        p = 1.0 / 95
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.abs(counts[5:] - draws * p).max() < 5 * sigma

    def test_user_with_every_item_errors(self):
        ds = simple_ds([[0, 1]], 2, validation=[0], test=[1])
        with pytest.raises(TrainError, match="every item"):
            sample_triplets(ds, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_epoch_negatives_never_positives(self, seed):
        # user 0 trains on every item but item 9, so each of its negatives is 9
        ds = simple_ds([list(range(9)), [0, 1, 2], [3, 5, 7, 9]], 10)
        batch = epoch_triplets(ds, np.random.default_rng(seed))
        sets = [set(items) for items in ds.train]
        for u, j in zip(batch.users, batch.neg_items):
            assert int(j) not in sets[int(u)]
        assert np.all(batch.neg_items[batch.users == 0] == 9)

    def test_epoch_covers_each_pair_once(self, small_ds):
        batch = epoch_triplets(small_ds, np.random.default_rng(7))
        assert len(batch) == small_ds.n_train_interactions()
        got = sorted(zip(batch.users.tolist(), batch.pos_items.tolist()))
        want = sorted((u, i) for u in range(small_ds.n_users) for i in small_ds.train[u])
        assert got == want


def isin_triplets(ds, rng, pick):
    """The sampler as it was with ``np.isin`` rejection over re-sorted keys."""
    users_all, items_all = train_pairs(ds)
    keys = np.unique(users_all * ds.n_items + items_all)
    idx = pick(users_all.size)
    users = users_all[idx]
    neg = rng.integers(ds.n_items, size=users.size)
    redo = np.flatnonzero(np.isin(users * ds.n_items + neg, keys))
    while redo.size:
        neg[redo] = rng.integers(ds.n_items, size=redo.size)
        redo = redo[np.isin(users[redo] * ds.n_items + neg[redo], keys)]
    return users, items_all[idx], neg


class TestSamplerStream:
    DATASETS = [
        lambda: synthetic_split(n_users=40, n_items=30, seed=2, min_train=3, max_train=12),
        lambda: simple_ds([list(range(9)), [0, 1, 2], [3, 5, 7, 9]], 10),
        lambda: simple_ds([[4], [0, 1, 2, 3]], 5),  # queries above and below every key
    ]

    @pytest.mark.parametrize("make", DATASETS)
    @pytest.mark.parametrize("seed", range(4))
    def test_same_triplets_as_isin_rejection(self, make, seed):
        ds = make()
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # later calls reuse the dataset's cached keys
            got = epoch_triplets(ds, rng_a)
            want = isin_triplets(ds, rng_b, rng_b.permutation)
            for x, y in zip((got.users, got.pos_items, got.neg_items), want):
                assert np.array_equal(x, y)
            got = sample_triplets(ds, 50, rng_a)
            want = isin_triplets(ds, rng_b, lambda n: rng_b.integers(n, size=50))
            for x, y in zip((got.users, got.pos_items, got.neg_items), want):
                assert np.array_equal(x, y)


class TestBprLoss:
    def test_equal_scores_gives_log2(self):
        s = np.array([1.0, -2.0, 0.3])
        assert bpr_loss(s, s, 0.0, 0.0) == pytest.approx(np.log(2.0), abs=1e-15)
        assert bpr_loss(s, s, 2.5, 0.1) == pytest.approx(np.log(2.0) + 0.25, abs=1e-15)

    def test_saturation(self):
        pos = np.array([50.0])
        neg = np.array([0.0])
        assert bpr_loss(pos, neg, 3.0, 0.01) == pytest.approx(0.03, abs=1e-12)

    def test_linear_regime_matches_softplus_oracle(self):
        pos = np.array([0.0])
        neg = np.array([50.0])
        oracle = np.log1p(np.exp(-50.0)) + 50.0  # softplus(50)
        assert bpr_loss(pos, neg, 0.0, 0.0) == pytest.approx(oracle, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(TrainError):
            bpr_loss(np.zeros(3), np.zeros(2), 0.0, 0.0)

    def test_batch_loss_l2_counts_repeats(self):
        # 2 users + 4 items; user 0 and item 1 each appear twice. A 0-layer
        # LightGCN scores with e0 itself.
        e0 = np.arange(12.0).reshape(6, 2)
        state = lightgcn_state(e0, zero_adjacency(6, 2), 0)
        batch = make_batch([0, 0], [1, 1], [2, 3])
        rows = [0, 0, 3, 3, 4, 5]
        want = sum(float(np.sum(e0[r] ** 2)) for r in rows) / 2
        got = batch_loss(state, batch, 1.0) - batch_loss(state, batch, 0.0)
        assert got == pytest.approx(want, rel=1e-15)
        assert batch_loss(state, batch, 0.0) == bpr_loss([7.0, 7.0], [9.0, 11.0], 0.0, 0.0)

    @pytest.mark.parametrize("model", ["euler", "rk4-weighted", "lightgcn"])
    @pytest.mark.parametrize("l2_lambda", [0.0, 1e-3])
    def test_trained_loss_is_batch_loss(self, small_ds, model, l2_lambda):
        state = model_state(small_ds, model)
        batch = make_batch([0, 1, 0, 5], [2, 3, 2, 7], [3, 2, 5, 2])
        loss, _ = loss_and_grads(state, batch, l2_lambda)
        assert loss == batch_loss(state, batch, l2_lambda)


class TestScoreHeadSigmoid:
    """The head's margin derivative is -sigmoid(-margin) / B from numpy's ``exp``;
    scipy's ``expit`` is only the reference here."""

    @staticmethod
    def margin_batch(margins):
        """A 0-layer LightGCN, which scores with e0, and a batch whose triplet j has
        user j at (1, 0), positive 2j at (margins[j], 1) and negative 2j + 1 at 0."""
        size = len(margins)
        e0 = np.zeros((3 * size, 2))
        e0[:size, 0] = 1.0
        e0[size::2] = np.column_stack([margins, np.ones(size)])
        picks = 2 * np.arange(size)
        return lightgcn_state(e0, zero_adjacency(3 * size, size), 0), \
            make_batch(np.arange(size), picks, picks + 1)

    def coef(self, margins):
        """``coef`` read off ``loss_and_grads``: user j's second gradient column
        is coef[j] * 1 - coef[j] * 0 once the L2 term is off."""
        state, batch = self.margin_batch(margins)
        assert np.isfinite(batch_loss(state, batch, 0.0))
        loss, grads = loss_and_grads(state, batch, 0.0)
        assert np.isfinite(loss)
        return grads.grad_e0[:len(margins), 1]

    def test_matches_expit_on_a_seeded_sweep(self):
        rng = np.random.default_rng(23)
        margins = np.concatenate([rng.normal(0.0, 8.0, 3000), rng.uniform(-700.0, 700.0, 1096)])
        want = -expit(-margins) / margins.size
        got = self.coef(margins)
        assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))

    def test_extreme_margins_stay_finite_and_warn_nothing(self):
        margins = np.array([-1000.0, -745.0, 745.0, 1000.0])
        got = self.coef(margins)
        size = margins.size
        assert np.all(np.isfinite(got)) and np.all((-1.0 / size <= got) & (got <= 0.0))
        assert got.tolist() == [-1.0 / size, -1.0 / size, 0.0, 0.0]


def mf_bpr_gradient(e0, n_users, batch, l2_lambda):
    """Closed-form BPR gradient for the plain inner-product model."""
    grad = np.zeros_like(e0)
    B = len(batch)
    for u, p, q in zip(batch.users, batch.pos_items, batch.neg_items):
        pu, pp, pq = e0[u], e0[n_users + p], e0[n_users + q]
        x = pu @ pp - pu @ pq
        c = -expit(-x) / B
        grad[u] += c * (pp - pq)
        grad[n_users + p] += c * pu
        grad[n_users + q] -= c * pu
        if l2_lambda:
            for r in (u, n_users + p, n_users + q):
                grad[r] += 2.0 * l2_lambda / B * e0[r]
    return grad


def textbook_backward(state, batch, l2_lambda):
    """Per-triplet cotangents scattered onto their rows by ``np.add.at``, then
    carried back by ``model_backward``; the L2 term is added row by row."""
    fe, ctx = model_forward(state)
    n_users, size = state.adjacency.n_users, len(batch)
    u, p, q = batch.users, n_users + batch.pos_items, n_users + batch.neg_items
    margin = np.einsum("ij,ij->i", fe[u], fe[p] - fe[q])
    coef = (-expit(-margin) / size)[:, None]
    d_fe = np.zeros_like(fe)
    np.add.at(d_fe, u, coef * (fe[p] - fe[q]))
    np.add.at(d_fe, p, coef * fe[u])
    np.add.at(d_fe, q, -coef * fe[u])
    d_e0, d_w = model_backward(state, ctx, d_fe)
    for rows in (u, p, q):
        np.add.at(d_e0, rows, (2.0 * l2_lambda / size) * state.e0[rows])
    return d_e0, d_w


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestBackward:
    @pytest.mark.parametrize("model", ["euler", "rk4-weighted", "lightgcn"])
    @pytest.mark.parametrize("l2_lambda", [0.0, 1e-3])
    def test_heavy_repeats_match_textbook_scatter(self, small_ds, model, l2_lambda):
        # user 0 is in 14 of 20 triplets; item 2 is the positive of 6 and the
        # negative of 6, once against itself
        state = model_state(small_ds, model)
        batch = make_batch([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 1],
                           [2, 2, 2, 3, 4, 5, 6, 7, 1, 2, 3, 2, 0, 6, 2, 4, 5, 6, 7, 0],
                           [3, 4, 5, 2, 2, 2, 2, 1, 2, 1, 0, 2, 7, 3, 1, 1, 1, 1, 1, 6])
        _, grads = loss_and_grads(state, batch, l2_lambda)
        want_e0, want_w = textbook_backward(state, batch, l2_lambda)
        assert relative_error(grads.grad_e0, want_e0) < 1e-12
        assert (grads.grad_hop_weights is None) == (want_w is None)
        if want_w is not None:
            assert relative_error(grads.grad_hop_weights, want_w) < 1e-12

    @pytest.mark.parametrize("model", ["euler", "lightgcn"])
    def test_backward_peak_stays_under_four_embedding_tables(self, model):
        # 3B x d is three times N x d here, so one 3B x d gather or cotangent
        # alive next to the reverse pass's own N x d arrays breaks the bound;
        # the reverse pass sums in the cotangent's storage: 3.35 tables
        ds = synthetic_split(n_users=300, n_items=700, seed=3)
        state = model_state(ds, model, dims=32)
        batch = sample_triplets(ds, 1024, np.random.default_rng(2))
        assert 3 * len(batch) > state.e0.shape[0]
        fe, ctx = model_forward(state)
        backward(batch, state, fe, ctx, 1e-4)  # first call outside the trace
        tracemalloc.start()
        try:
            backward(batch, state, fe, ctx, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * state.e0.nbytes

    @pytest.mark.parametrize("model", ["rk4", "rk4-weighted"])
    def test_rk4_backward_peak_stays_under_five_embedding_tables(self, model):
        # a step adds each power M^j e / j! into its sum, the step's input, as
        # it comes, so beside that sum only the current power and the hop
        # products of the next one are alive: 4.35 tables
        ds = synthetic_split(n_users=300, n_items=700, seed=3)
        state = model_state(ds, model, dims=32)
        batch = sample_triplets(ds, 1024, np.random.default_rng(2))
        fe, ctx = model_forward(state)
        backward(batch, state, fe, ctx, 1e-4)  # first call outside the trace
        tracemalloc.start()
        try:
            backward(batch, state, fe, ctx, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * state.e0.nbytes

    @pytest.mark.parametrize("model", ["euler", "rk4-weighted", "lightgcn"])
    def test_backward_hands_its_cotangent_over(self, small_ds, monkeypatch, model):
        # through odecf.train.model_backward, which the benchmark traces, to the kept call's bits
        state = model_state(small_ds, model)
        batch = sample_triplets(small_ds, 16, np.random.default_rng(6))
        calls = []

        def reverse(state, ctx, d_fe, overwrite=False):
            calls.append(overwrite)
            want = model_backward(state, ctx, d_fe.copy())
            got = model_backward(state, ctx, d_fe, overwrite=overwrite)
            assert all((g is w is None) or (g == w).all() for g, w in zip(got, want))
            return got

        monkeypatch.setattr(odecf.train, "model_backward", reverse)
        loss_and_grads(state, batch, 1e-3)
        assert calls == [True]

    def test_zero_length_integration_matches_mf_oracle(self, small_ds):
        state = make_state(small_ds, t1=1e-30, steps=1, n_hops=1, seed=3)
        batch = sample_triplets(small_ds, 16, np.random.default_rng(5))
        _, grads = loss_and_grads(state, batch, l2_lambda=1e-3)
        oracle = mf_bpr_gradient(state.e0, small_ds.n_users, batch, 1e-3)
        assert np.abs(grads.grad_e0 - oracle).max() < 1e-12

    def test_repeated_rows_match_mf_oracle(self, small_ds):
        # every user and item appears several times, an item both as a
        # positive and as a negative, so the scatter must accumulate
        state = make_state(small_ds, t1=1e-30, steps=1, n_hops=1, seed=4)
        batch = make_batch([0, 1, 0, 1, 0, 1], [2, 3, 2, 5, 3, 2], [3, 2, 5, 2, 5, 3])
        _, grads = loss_and_grads(state, batch, l2_lambda=1e-2)
        oracle = mf_bpr_gradient(state.e0, small_ds.n_users, batch, 1e-2)
        assert np.abs(grads.grad_e0 - oracle).max() < 1e-12

    def test_zero_embeddings_stationary(self, small_ds):
        state = make_state(small_ds, method="rk4", steps=2, n_hops=2)
        state.e0[:] = 0.0
        batch = sample_triplets(small_ds, 8, np.random.default_rng(1))
        loss, grads = loss_and_grads(state, batch, l2_lambda=0.0)
        assert loss == pytest.approx(np.log(2.0), abs=1e-15)
        assert np.array_equal(grads.grad_e0, np.zeros_like(state.e0))

    @pytest.mark.parametrize("model", ["euler", "rk4", "euler-weighted", "rk4-weighted",
                                       "lightgcn"])
    def test_reverse_pass_costs_as_many_spmm_as_forward(self, small_ds, monkeypatch, model):
        state = model_state(small_ds, model)
        calls = []
        real = odecf.model.spmm
        monkeypatch.setattr(odecf.model, "spmm", lambda a, x: calls.append(1) or real(a, x))
        fe, ctx = odecf.model.model_forward(state)
        forward_calls = len(calls)
        odecf.model.model_backward(state, ctx, np.ones_like(fe))
        assert forward_calls > 0 and len(calls) == 2 * forward_calls

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_finite_differences_with_a_zero_hop_weight(self, method):
        ds = synthetic_split(n_users=6, n_items=8, seed=2, min_train=3, max_train=4)
        state = make_state(ds, method=method, steps=2, n_hops=3, use_weights=True,
                           dims=4, seed=9)
        state.hop_weights[:] = [1.1, 0.0, 0.9]
        batch = sample_triplets(ds, 20, np.random.default_rng(4))
        assert finite_difference_check(state, batch, l2_lambda=1e-3) < 1e-5
        _, grads = loss_and_grads(state, batch, l2_lambda=1e-3)
        assert grads.grad_hop_weights[1] != 0.0

    def test_hop_weights_are_one_degree_of_freedom(self, small_ds):
        state = make_state(small_ds, method="rk4", steps=2, n_hops=3, use_weights=True)
        state.hop_weights[:] = [1.1, 0.7, 1.3]
        batch = sample_triplets(small_ds, 16, np.random.default_rng(2))
        _, grads = loss_and_grads(state, batch, l2_lambda=1e-3)
        scaled = state.hop_weights * grads.grad_hop_weights
        assert scaled[0] != 0.0
        assert np.allclose(scaled, scaled[0], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("use_weights", [False, True])
    def test_finite_differences_small_instance(self, method, use_weights):
        ds = synthetic_split(n_users=6, n_items=8, seed=2, min_train=3, max_train=4)
        state = make_state(ds, method=method, steps=2, n_hops=2,
                           use_weights=use_weights, dims=4, seed=9)
        if use_weights:
            state.hop_weights[:] = [1.1, 0.9]
        batch = sample_triplets(ds, 20, np.random.default_rng(4))
        err = finite_difference_check(state, batch, l2_lambda=1e-3)
        assert err < 1e-5

    def test_lightgcn_finite_differences(self):
        ds = synthetic_split(n_users=6, n_items=8, seed=6, min_train=3, max_train=4)
        adj = build_adjacency(ds)
        e0 = init_embeddings(adj.n_nodes, 4, 0.5, 12)
        state = lightgcn_state(e0, adj, 2)
        batch = sample_triplets(ds, 20, np.random.default_rng(8))
        assert finite_difference_check(state, batch, l2_lambda=1e-3) < 1e-5


# loss_and_grads's hop-weight gradient on a 1,000-node split at d=128, weighted RK4: its
# dot product runs over 128,000 entries, where a BLAS dot splits the sum across threads
HOP_WEIGHT_GRADIENT = """
import numpy as np
from odecf.data import synthetic_split
from odecf.graph import build_adjacency
from odecf.model import ModelState, SolverConfig, init_embeddings
from odecf.train import loss_and_grads, sample_triplets

ds = synthetic_split(n_users=400, n_items=600, seed=5)
solver = SolverConfig(method="rk4", steps=2, n_hops=2, use_weights=True)
state = ModelState.create(init_embeddings(1000, 128, 0.5, 6), build_adjacency(ds), solver)
loss, grads = loss_and_grads(state, sample_triplets(ds, 256, np.random.default_rng(7)), 1e-4)
print(float(loss).hex(), *(float(g).hex() for g in grads.grad_hop_weights))
"""


@two_blas_threads
def test_training_bits_do_not_depend_on_the_blas_thread_count():
    outputs = [run_fresh(["-c", HOP_WEIGHT_GRADIENT], **dict.fromkeys(BLAS_THREAD_VARIABLES, n))
               for n in ("1", "2")]
    assert outputs[0] == outputs[1]


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0, 3.0])
        opt = OptimizerState.for_params([p])
        adam_step([p], [np.zeros(3)], opt, lr=0.1)
        assert np.array_equal(p, [1.0, -2.0, 3.0])
        # with a zero gradient the moments only decay
        warm = OptimizerState(first_moment=[np.array([0.5])], second_moment=[np.array([0.25])])
        adam_step([np.array([1.0])], [np.zeros(1)], warm, lr=0.1)
        assert warm.first_moment[0][0] == pytest.approx(0.45, abs=1e-15)
        assert warm.second_moment[0][0] == pytest.approx(0.999 * 0.25, abs=1e-15)

    def test_first_step_closed_form(self):
        g = np.array([0.3, -4.0, 1e-3])
        p = np.zeros(3)
        opt = OptimizerState.for_params([p])
        adam_step([p], [g], opt, lr=0.01)
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.abs(p - expected).max() < 1e-15

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        g = np.array([2.0])
        p = np.array([0.0])
        opt = OptimizerState.for_params([p])
        prev = p.copy()
        deltas = []
        for _ in range(1000):
            adam_step([p], [g], opt, lr=0.05)
            deltas.append(float(prev[0] - p[0]))
            prev = p.copy()
        assert all(d > 0 for d in deltas)  # monotone against a constant gradient
        assert deltas[-1] == pytest.approx(0.05, rel=1e-6)


def validation_hook(ds):
    return lambda state: evaluate(final_embeddings(state), ds, "validation", [20])


class TestFit:
    def toy_state(self, toy_ds, seed=0):
        return make_state(toy_ds, method="euler", t1=0.9, steps=1, n_hops=2,
                          dims=8, std=0.1, seed=seed, allow_isolated_items=True)

    def test_zero_epochs_returns_untrained_copy(self, toy_ds):
        state = self.toy_state(toy_ds)
        before = state.e0.copy()
        cfg = TrainConfig(learning_rate=0.05, max_epochs=0, seed=0)
        history, best = fit(toy_ds, state, cfg, validation_hook(toy_ds))
        assert history == []
        assert np.array_equal(best.e0, before)
        assert best is not state

    def test_toy_reaches_perfect_validation_ndcg(self, toy_ds):
        state = self.toy_state(toy_ds, seed=1)
        cfg = TrainConfig(learning_rate=0.05, l2_lambda=1e-4, batch_size=4,
                          max_epochs=200, patience=500, seed=1)
        history, best = fit(toy_ds, state, cfg, validation_hook(toy_ds))
        assert max(h.ndcg20 for h in history) == 1.0
        assert history[1].loss < history[0].loss

    def test_training_leaves_the_train_lists_unbuilt(self):
        # ds.train is a derived view; the pipeline reads the CSR arrays only
        ds = synthetic_split(n_users=12, n_items=10, seed=4)
        state = make_state(ds, dims=4, std=0.1, seed=0)
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=2, seed=0)
        fit(ds, state, cfg, validation_hook(ds))
        evaluate(final_embeddings(state), ds, "test", [20])
        assert "train" not in vars(ds)

    def test_best_checkpoint_matches_history_maximum(self, toy_ds):
        state = self.toy_state(toy_ds, seed=2)
        cfg = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=30,
                          patience=500, seed=2)
        history, best = fit(toy_ds, state, cfg, validation_hook(toy_ds))
        report = evaluate(final_embeddings(best), toy_ds, "validation", [20])
        assert report.ndcg_at(20) == max(h.ndcg20 for h in history)

    def test_deterministic_loss_trajectory(self, toy_ds):
        runs = []
        for _ in range(2):
            state = self.toy_state(toy_ds, seed=3)
            cfg = TrainConfig(learning_rate=0.05, batch_size=2, max_epochs=12,
                              patience=500, seed=3)
            history, _ = fit(toy_ds, state, cfg, validation_hook(toy_ds))
            runs.append([h.loss for h in history])
        assert runs[0] == runs[1]

    def test_early_stopping_respects_patience(self, toy_ds):
        state = self.toy_state(toy_ds, seed=4)
        cfg = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=200,
                          patience=3, seed=4)
        history, _ = fit(toy_ds, state, cfg, validation_hook(toy_ds))
        # NDCG@20 saturates at 1.0 on the toy, so exactly `patience` epochs
        # pass after the first perfect one (ties never reset the counter)
        first_best = next(h.epoch for h in history if h.ndcg20 == 1.0)
        assert history[-1].epoch == first_best + 3

    def test_divergence_aborts_with_history_so_far(self, toy_ds):
        # one optimizer step of ~1e200 overflows the squared norms on the next
        # batch, so training aborts almost immediately with a finite checkpoint
        state = self.toy_state(toy_ds, seed=5)
        cfg = TrainConfig(learning_rate=1e200, batch_size=4, max_epochs=50,
                          patience=500, seed=5)
        history, best = fit(toy_ds, state, cfg, validation_hook(toy_ds))
        assert len(history) < 3
        assert np.isfinite(best.e0).all()

    def test_overflowing_scores_raise_and_fit_keeps_the_initial_state(self):
        # rows of 1e160 propagate to finite embeddings, but their products overflow,
        # so the batch loss is not finite; no warning escapes (warnings are errors here)
        ds = synthetic_split(10, 12, seed=0)
        state = make_state(ds, dims=4, allow_isolated_items=True)
        state.e0[:] = 1e160
        assert np.isfinite(final_embeddings(state)).all()
        batch = sample_triplets(ds, 8, np.random.default_rng(0))
        with pytest.raises(SolverError, match="non-finite batch loss"):
            batch_loss(state, batch, 1e-4)
        with pytest.raises(SolverError, match="non-finite batch loss"):
            loss_and_grads(state, batch, 1e-4)
        cfg = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=5, seed=0)
        history, best = fit(ds, state, cfg, validation_hook(ds))
        assert history == []
        assert best is not state and np.all(best.e0 == 1e160)

    @pytest.mark.parametrize("model", ["euler", "rk4-weighted", "lightgcn"])
    def test_fit_keeps_only_the_best_copy_and_adam_moments_alive(self, monkeypatch, model):
        # a step's gradient must be gone when the next forward pass starts, and
        # the epoch's triplets when the hook runs: 3.06-3.25 tables, 4.20-4.29 if not;
        # the triplets are 0.13 tables here, so weak references pin them
        ds = synthetic_split(n_users=300, n_items=700, seed=3)
        state = model_state(ds, model, dims=32)
        real_forward, real_triplets = odecf.train.model_forward, odecf.train.epoch_triplets
        validate = validation_hook(ds)
        at_forward, at_hook, epochs, kept = [], [], [], []

        def forward(state):
            at_forward.append(tracemalloc.get_traced_memory()[0])
            return real_forward(state)

        def triplets(ds, rng):
            batch = real_triplets(ds, rng)
            epochs.append([weakref.ref(a) for a in (batch.users, batch.pos_items, batch.neg_items)])
            return batch

        def hook(state):
            at_hook.append(tracemalloc.get_traced_memory()[0])
            kept.append(any(ref() is not None for ref in epochs[-1]))
            return validate(state)

        monkeypatch.setattr(odecf.train, "model_forward", forward)
        monkeypatch.setattr(odecf.train, "epoch_triplets", triplets)
        cfg = TrainConfig(learning_rate=0.01, batch_size=256, max_epochs=2, patience=5, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit(ds, state, cfg, hook)
        finally:
            tracemalloc.stop()
        assert len(at_hook) == 2 and len(at_forward) > 2
        assert max(at_forward[1:] + at_hook) - base < 3.5 * state.e0.nbytes
        assert kept == [False, False]

    def test_lightgcn_state_trains(self, toy_ds):
        adj = build_adjacency(toy_ds, allow_isolated_items=True)
        e0 = init_embeddings(adj.n_nodes, 8, 0.1, 6)
        state = lightgcn_state(e0, adj, 2)
        cfg = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=60,
                          patience=500, seed=6)
        history, best = fit(toy_ds, state, cfg, validation_hook(toy_ds))
        assert history[-1].loss < history[0].loss


def damage_checkpoint(path, damage):
    """Replace a saved ``checkpoint.emb`` with a file ``load_checkpoint`` must refuse."""
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    elif damage == "empty":
        path.write_bytes(b"")
    elif damage == "pickled":
        with open(path, "wb") as fh:
            np.save(fh, np.array([{"e0": 1}], dtype=object))
    else:  # the raw-float layout older checkpoints used
        path.write_bytes(b"EMBF64LE" + np.array([2, 2], "<i8").tobytes() + bytes(32))


class TestArtifacts:
    def test_training_log_format(self, tmp_path, toy_ds):
        state = make_state(toy_ds, dims=4, allow_isolated_items=True)
        cfg = TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=3,
                          patience=10, seed=0)
        history, _ = fit(toy_ds, state, cfg, validation_hook(toy_ds))
        path = tmp_path / "log.csv"
        write_training_log(path, history, log_timing=False)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,recall20,ndcg20,seconds"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 5 and cells[4] == "0.0"
            float(cells[1])

    def test_checkpoint_round_trip(self, tmp_path, small_ds):
        for use_weights in (True, False):
            outdir = tmp_path / f"weights={use_weights}"
            state = make_state(small_ds, use_weights=use_weights, n_hops=2)
            if use_weights:
                state.hop_weights[:] = [1.25, 0.1 + 0.2]  # 0.30000000000000004 must survive
            save_checkpoint(outdir, state, epoch=17, metric=0.5, config_hash="abc123")
            e0, weights, meta = load_checkpoint(outdir)
            assert e0.dtype == np.float64 and np.array_equal(e0, state.e0)
            assert meta["epoch"] == "17" and meta["config_hash"] == "abc123"
            if use_weights:
                assert weights.tobytes() == state.hop_weights.tobytes()
            else:
                assert weights is None and "hop_weights" not in meta
            assert sorted(p.name for p in outdir.iterdir()) == [
                "checkpoint.emb", "checkpoint_meta.txt"]

    def test_checkpoint_is_a_deterministic_npy_file(self, tmp_path, small_ds):
        state = make_state(small_ds)
        for name in ("a", "b"):
            save_checkpoint(tmp_path / name, state, epoch=1, metric=0.5, config_hash="abc123")
        assert np.array_equal(np.load(tmp_path / "a" / "checkpoint.emb"), state.e0)
        assert ((tmp_path / "a" / "checkpoint.emb").read_bytes()
                == (tmp_path / "b" / "checkpoint.emb").read_bytes())

    @pytest.mark.parametrize("damage", ["truncated", "empty", "pickled", "text"])
    def test_unreadable_checkpoint_names_the_file(self, tmp_path, small_ds, damage):
        save_checkpoint(tmp_path, make_state(small_ds), epoch=1, metric=0.5, config_hash="abc")
        damage_checkpoint(tmp_path / "checkpoint.emb", damage)
        with pytest.raises(TrainError, match="checkpoint.emb"):
            load_checkpoint(tmp_path)

    def test_unreadable_hop_weights_name_the_checkpoint(self, tmp_path, small_ds):
        save_checkpoint(tmp_path, make_state(small_ds, use_weights=True, n_hops=2),
                        epoch=1, metric=0.5, config_hash="abc")
        meta = tmp_path / "checkpoint_meta.txt"
        meta.write_text(meta.read_text().replace("hop_weights=1.0,", "hop_weights=1.0,x"))
        with pytest.raises(TrainError, match="checkpoint.emb"):
            load_checkpoint(tmp_path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, small_ds, monkeypatch):
        state = make_state(small_ds)
        save_checkpoint(tmp_path, state, epoch=1, metric=0.5, config_hash="abc123")
        before = (tmp_path / "checkpoint.emb").read_bytes()

        def fail_partway(fh, arr):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", fail_partway)
        state.e0 += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path, state, epoch=2, metric=0.6, config_hash="abc123")
        assert (tmp_path / "checkpoint.emb").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.emb", "checkpoint_meta.txt"]
        assert load_checkpoint(tmp_path)[2]["epoch"] == "1"

    def test_config_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainError):
            TrainConfig(patience=0)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
