"""The program names the benchmark under ``perfbench/`` reads.

The span tracer skips a target that no longer resolves, and the layer metric
built on it silently disappears, so a rename must fail here instead.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import odecf.evaluation
import odecf.model
from odecf.data import k_core_filter, leave_one_out_split, parse_interactions, synthetic_split
from odecf.evaluation import evaluate, rank_all
from odecf.graph import build_adjacency
from odecf.model import (
    LightGCNState,
    ModelState,
    SolverConfig,
    final_embeddings,
    init_embeddings,
)
from odecf.train import TrainConfig, batch_loss, fit, loss_and_grads, sample_triplets

from conftest import run_fresh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attr, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


@pytest.mark.parametrize("name,calls", [("train-euler", 4), ("train-rk4-weighted", 16),
                                        ("wide-catalog", 4)])
def test_a_training_step_makes_the_workloads_spmm_count(monkeypatch, name, calls):
    """``graph.spmm_calls_per_step`` traces ``odecf.model.spmm`` and the workloads' ``why``
    quotes its count: 2 K top steps for Euler (top 1) and RK4 (top 4), 2 K for LightGCN."""
    w = load_perfbench("workloads").WORKLOADS[name]
    ds = synthetic_split(n_users=10, n_items=12, seed=2)
    adj = build_adjacency(ds)
    e0 = init_embeddings(ds.n_users + ds.n_items, 3, 0.1, 4)
    if w.model == "gode_cf":  # built as perfbench/run.py builds it
        solver = SolverConfig(method=w.method, t1=w.t1, steps=w.steps, n_hops=w.n_hops,
                              use_weights=w.use_weights)
        state = ModelState.create(e0, adj, solver)
        expected = 2 * w.n_hops * (1 if w.method == "euler" else 4) * w.steps
    else:
        state = LightGCNState.create(e0, adj, w.n_layers)
        expected = 2 * w.n_layers
    seen = []
    real = odecf.model.spmm
    monkeypatch.setattr(odecf.model, "spmm", lambda a, x: seen.append(1) or real(a, x))
    loss_and_grads(state, sample_triplets(ds, 5, np.random.default_rng(5)), w.l2_lambda)
    assert len(seen) == expected == calls


def test_package_root_loads_no_submodule_and_run_py_imports_reach_every_target():
    """``run.py`` runs ``import odecf`` and then ``from odecf import data, evaluation,
    graph, model, train``; the package root alone loads no submodule, and those five
    imports load every module the tracer rebinds."""
    code = f"""
import sys
import odecf
loaded = [m for m in sys.modules if m.startswith("odecf.")]
assert not loaded, loaded
from odecf import data, evaluation, graph, model, train
for module_name, attr, _ in {load_spans().TARGETS!r}:
    assert callable(getattr(sys.modules[module_name], attr, None)), module_name + "." + attr
"""
    run_fresh(["-c", code])


def test_program_imports_leave_scipy_special_unloaded():
    """``scipy.special`` costs ~6 MB of resident memory on import, and the
    benchmark's ``peak_rss_mb`` counts it, so neither the five modules ``run.py``
    loads nor the CLI may pull it in."""
    code = """
import sys
from odecf import cli, data, evaluation, graph, model, train
assert "scipy.special" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy."))
"""
    run_fresh(["-c", code])


def test_adjacency_and_ranks_keep_their_shape():
    ds = synthetic_split(n_users=6, n_items=8, seed=1)
    assert isinstance(build_adjacency(ds).to_scipy(), sp.csr_matrix)
    fe = np.random.default_rng(2).normal(size=(ds.n_users + ds.n_items, 3))
    ranks = [r.rank for r in rank_all(fe, ds, "test")]
    assert len(ranks) == ds.n_users
    assert all(type(r) is int for r in ranks)


def test_evaluate_ranks_through_rank_all_once(monkeypatch):
    """``eval.rank_s`` and ``eval.users_per_s`` time ``rank_all`` inside ``evaluate``,
    which ranks as deep as its largest N."""
    ds = synthetic_split(n_users=6, n_items=8, seed=1)
    fe = np.random.default_rng(2).normal(size=(ds.n_users + ds.n_items, 3))
    calls = []

    def counted(*args, **kwargs):
        calls.append(inspect.signature(rank_all).bind(*args, **kwargs).arguments)
        return rank_all(*args, **kwargs)

    monkeypatch.setattr(odecf.evaluation, "rank_all", counted)
    odecf.evaluation.evaluate(fe, ds, "validation", [1, 5])
    assert len(calls) == 1
    assert calls[0]["depth"] == 5


def test_three_argument_rank_all_ranks_past_21():
    """``run.py`` and ``selftest.py`` check ``rank_all(fe, ds, "test")`` against a brute
    force, so without ``depth`` it ranks to the end of the catalog."""
    ds = synthetic_split(n_users=6, n_items=60, seed=1)
    fe = np.zeros((ds.n_users + ds.n_items, 1))
    fe[:ds.n_users] = 1.0
    fe[ds.n_users:, 0] = 1.0 + np.arange(ds.n_items)
    fe[ds.n_users + ds.test, 0] = 0.0  # every other candidate beats the test items
    ranks = [r.rank for r in rank_all(fe, ds, "test")]
    assert min(ranks) > 21


def test_state_calls_keep_their_form():
    """The positional ``create`` calls, ``copy``, ``hop_weights`` and gradient fields of ``run.py``.

    ``LightGCNState.create`` survives only as the benchmark's factory for a lightgcn
    ``ModelState``; ROADMAP item 4 moves ``run.py`` off it and removes it.
    """
    ds = synthetic_split(n_users=6, n_items=8, seed=3)
    adj = build_adjacency(ds)
    e0 = init_embeddings(ds.n_users + ds.n_items, 3, 0.1, 4)
    lightgcn = LightGCNState.create(e0, adj, 2)
    assert type(lightgcn) is ModelState
    assert lightgcn.solver.method == "lightgcn" and lightgcn.solver.n_hops == 2
    assert lightgcn.hop_weights is None
    batch = sample_triplets(ds, 5, np.random.default_rng(5))
    solver = SolverConfig(method="rk4", t1=0.9, steps=1, n_hops=2, use_weights=True)
    for state, has_weights in ((LightGCNState.create(e0, adj, 2), False),
                               (ModelState.create(e0, adj, solver), True)):
        copy = state.copy()
        assert type(copy) is type(state) and copy.e0 is not state.e0
        assert np.array_equal(copy.e0, e0)
        weights = getattr(copy, "hop_weights", None)
        assert (weights is not None) == has_weights
        grads = loss_and_grads(copy, batch, 1e-4)[1]
        assert grads.grad_e0.shape == e0.shape
        assert (grads.grad_hop_weights is not None) == has_weights
        if has_weights:
            assert grads.grad_hop_weights.shape == weights.shape


def test_training_and_evaluation_warn_nothing():
    """A warning prints to stderr, which the benchmark's output merges ahead of
    its closing result line, so one epoch and the test evaluation must raise none."""
    ds = synthetic_split(n_users=40, n_items=60, seed=6)
    adj = build_adjacency(ds)
    e0 = init_embeddings(ds.n_users + ds.n_items, 8, 0.1, 7)
    solver = SolverConfig(method="rk4", t1=0.9, steps=1, n_hops=2, use_weights=True)
    cfg = TrainConfig(learning_rate=0.05, l2_lambda=1e-4, batch_size=32, max_epochs=1, seed=8)
    for state in (LightGCNState.create(e0.copy(), adj, 2), ModelState.create(e0.copy(), adj, solver)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            history, best = fit(ds, state, cfg, lambda s: evaluate(final_embeddings(s), ds,
                                                                   "validation", [20]))
            evaluate(final_embeddings(best), ds, "test", [20])
        assert len(history) == 1


def test_log_and_split_fields_keep_their_form():
    """The log rows ``checks.log_arrays`` reads, the row-dropping ``replace`` of
    ``selftest.py``, and the split fields ``checks`` and ``run.py`` read."""
    log, _ = parse_interactions(["u1 i2 30", "u0 i2 10", "u1 i0 20", "u0 i1 40", "u1 i1 50",
                                 "u0 i0 60"])
    rows = [(r.user_key, r.item_key, r.timestamp) for r in log.interactions]
    assert rows[:2] == [("u1", "i2", 30), ("u0", "i2", 10)]
    short = dataclasses.replace(log, interactions=log.interactions[1:])
    assert len(short) == len(log) - 1
    assert [(r.user_key, r.item_key, r.timestamp) for r in short.interactions] == rows[1:]
    for ds in (leave_one_out_split(log), synthetic_split(n_users=6, n_items=8, seed=1)):
        assert isinstance(ds.user_index, dict) and isinstance(ds.item_index, dict)
        assert ds.n_train_interactions() == len(ds.train_items)
        assert len(ds.train) == ds.n_users
        for u, items in enumerate(ds.train):
            assert all(type(i) is int for i in items)
            assert items == ds.train_items[ds.train_indptr[u]:ds.train_indptr[u + 1]].tolist()


def test_fit_and_batch_loss_keep_their_form():
    """``run.py`` unpacks ``(history, best)``, ``checks.check_fit`` reads ``.epoch`` and
    ``.loss``, and the gradient check treats ``batch_loss`` as a float function."""
    ds = synthetic_split(n_users=6, n_items=8, seed=3)
    state = ModelState.create(init_embeddings(ds.n_users + ds.n_items, 3, 0.1, 4),
                              build_adjacency(ds), SolverConfig())
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=2, seed=5)
    history, best = fit(ds, state.copy(), cfg,
                        lambda s: evaluate(final_embeddings(s), ds, "validation", [20]))
    assert [r.epoch for r in history] == [1, 2]
    assert all(type(r.loss) is float for r in history)
    assert type(best) is ModelState
    batch = sample_triplets(ds, 5, np.random.default_rng(6))
    assert type(batch_loss(state, batch, 1e-4)) is float


def test_calls_beside_removed_options_keep_their_form():
    """``run.py``'s ``k_core_filter(log, k)``, ``build_adjacency(ds, allow_isolated_items=True)``,
    ``evaluate(fe, ds, mode, [20])`` and three-argument ``rank_all(fe, ds, "test")``."""
    # u0: train a, b, validation c, test x; u1: train a, b, validation x, test c.
    # c and x have no train edge; u9 and z fall below the 2-core
    log, _ = parse_interactions(["u0 a 1", "u0 b 2", "u0 c 3", "u0 x 4", "u1 a 1", "u1 b 2",
                                 "u1 x 3", "u1 c 4", "u9 z 1"])
    kept = k_core_filter(log, 2)
    assert len(kept) == 8
    ds = leave_one_out_split(kept)
    adj = build_adjacency(ds, allow_isolated_items=True).to_scipy()
    for key in ("c", "x"):
        node = ds.n_users + ds.item_index[key]
        assert adj[node].nnz == 0 and adj[:, node].nnz == 0
    # scores rise with the item id, so u1's validation item x outranks its test item c
    fe = np.zeros((ds.n_users + ds.n_items, 1))
    fe[:ds.n_users] = 1.0
    fe[ds.n_users:, 0] = np.arange(ds.n_items)
    assert [r.rank for r in rank_all(fe, ds, "test")] == [1, 1]
    report = evaluate(fe, ds, "test", [20])
    assert report.n_values == [20] and report.recall_at(20) == 1.0
