"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements. The coarse-step solver-vs-oracle tolerance check is known to be
unattainable at unit scale (see its docstring); it runs unweakened and is
expected to fail, while the companion convergence-order check passes.
"""

import os
import time

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import make_state
from odecf.cli import EXIT_OK, main
from odecf.data import (
    k_core_filter,
    leave_one_out_split,
    parse_interactions,
    synthetic_split,
)
from odecf.evaluation import evaluate, ndcg_at_n, rank_heldout, recall_at_n
from odecf.graph import build_adjacency
from odecf.model import ModelState, SolverConfig, final_embeddings, init_embeddings
from odecf.train import TrainConfig, finite_difference_check, fit, sample_triplets

from test_data import make_log
from test_evaluation import brute_force_rank, embedding_for_scores
from test_graph import simple_ds


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_gradient_exactness():
    """All {euler,rk4} x hops {1,2,3} x weights {on,off} match central differences."""
    started = time.perf_counter()
    ds = synthetic_split(n_users=10, n_items=12, seed=3, min_train=3, max_train=5)
    adjacency = build_adjacency(ds)
    rng = np.random.default_rng(7)
    worst = 0.0
    for method in ("euler", "rk4"):
        for n_hops in (1, 2, 3):
            for use_weights in (False, True):
                solver = SolverConfig(method=method, t1=0.9, steps=2,
                                      n_hops=n_hops, use_weights=use_weights)
                e0 = init_embeddings(ds.n_users + ds.n_items, 4, 0.5, 11 + n_hops)
                state = ModelState.create(e0, adjacency, solver)
                if use_weights:
                    state.hop_weights += rng.normal(0.0, 0.1, n_hops)
                batch = sample_triplets(ds, 24, np.random.default_rng(5))
                err = finite_difference_check(state, batch, l2_lambda=1e-3)
                assert err < 1e-5, f"{method} hops={n_hops} weights={use_weights}: {err:.3e}"
                worst = max(worst, err)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("gradient-exactness", f"worst rel err {worst:.3e} over 12 combos in {elapsed:.1f}s")


def _eight_node_setup():
    ds = synthetic_split(n_users=3, n_items=5, seed=1, min_train=2, max_train=3)
    adjacency = build_adjacency(ds)
    e0 = init_embeddings(8, 4, 1.0, 0)
    return ds, adjacency, e0


def _integrate_cfg(ds, e0, method, t1, steps, n_hops=1):
    state = make_state(ds, method=method, t1=t1, steps=steps, n_hops=n_hops, std=1.0)
    state.e0[:] = e0
    return final_embeddings(state)


def test_solver_oracle_equivalence_coarse():
    """Coarse RK4 within 1e-6 of a 1e5-step explicit-Euler oracle.

    This tolerance cannot hold at unit scale: the normalized bipartite
    adjacency always carries the eigenvalue pair +-1, so the generator has a
    mode at -2 and one RK4 step of size ~1 truncates by |R4(z)-e^z| ~ 1e-1
    there; the oracle itself sits ~3e-6 from the true flow. The check runs
    unweakened; the printed numbers document the gap.
    """
    ds, adjacency, e0 = _eight_node_setup()
    dense = adjacency.to_scipy().toarray()
    diffs = {}
    for t1 in (0.7, 1.0):
        oracle = _integrate_cfg(ds, e0, "euler", t1, 100000)
        oracle_gap = np.abs(oracle - expm((dense - np.eye(8)) * t1) @ e0).max()
        for steps in (1, 2):
            diff = np.abs(_integrate_cfg(ds, e0, "rk4", t1, steps) - oracle).max()
            diffs[(t1, steps)] = diff
            print(f"rk4 steps={steps} t1={t1}: |rk4 - euler_1e5| = {diff:.3e} "
                  f"(oracle itself {oracle_gap:.1e} from exact)")
    worst = max(diffs.values())
    assert worst < 1e-6, (
        f"coarse RK4 vs 1e5-step Euler oracle: max abs diff {worst:.3e} >= 1e-6; "
        f"single-step truncation on the -2 spectral mode makes this bound "
        f"unreachable for unit-scale embeddings"
    )
    report("solver-oracle-coarse", f"max abs diff {worst:.3e}")


def test_solver_convergence_orders():
    """Euler slope ~= 1 and RK4 slope ~= 4 over steps {1,2,4,8}.

    Measured at t1=0.2 so every spectral mode (down to -2) stays inside the
    asymptotic regime; errors here are far above the 1e-12 floor.
    """
    ds, adjacency, e0 = _eight_node_setup()
    dense = adjacency.to_scipy().toarray()
    t1 = 0.2
    exact = expm((dense - np.eye(8)) * t1) @ e0
    slopes = {}
    for method, nominal in (("euler", 1.0), ("rk4", 4.0)):
        errs = [np.abs(_integrate_cfg(ds, e0, method, t1, s) - exact).max()
                for s in (1, 2, 4, 8)]
        assert min(errs) > 1e-12
        slope = -np.polyfit(np.log2([1, 2, 4, 8]), np.log2(errs), 1)[0]
        slopes[method] = slope
        assert abs(slope - nominal) < 0.3, f"{method}: slope {slope:.3f} vs {nominal}"
    report("solver-convergence-orders",
           f"euler {slopes['euler']:.3f}, rk4 {slopes['rk4']:.3f}")


def test_residual_connection_equivalence():
    """Euler, steps=1, t1=1, one hop equals e0 + (A - I) e0 on the dense path."""
    ds = synthetic_split(n_users=4, n_items=6, seed=2)
    state = make_state(ds, method="euler", t1=1.0, steps=1, n_hops=1, std=1.0, seed=8)
    dense = state.adjacency.to_scipy().toarray()
    residual = state.e0 + (dense @ state.e0 - state.e0)
    gap = np.abs(final_embeddings(state) - residual).max()
    assert gap <= 1e-15
    report("residual-equivalence", f"max abs gap {gap:.1e}")


def test_metric_oracle():
    """Ranks and both metrics match a brute-force full-sort evaluator, 1000 cases."""
    rng = np.random.default_rng(0)
    n_items = 50
    ds = simple_ds([[0]], n_items, validation=[1], test=[2])
    ranks_lib, ranks_oracle = [], []
    for case in range(1000):
        scores = rng.normal(size=n_items)
        if case % 3 == 0:
            scores = np.round(scores, 1)  # deliberate ties
        excl = set(int(x) for x in rng.choice(n_items, size=6, replace=False))
        target = int(rng.choice([i for i in range(n_items) if i not in excl]))
        fe = embedding_for_scores([scores], 1)
        got = rank_heldout(fe, ds, 0, target, excl).rank
        want = brute_force_rank(scores, target, excl)
        assert got == want
        ranks_lib.append(got)
        ranks_oracle.append(want)
    lib, oracle = np.array(ranks_lib), np.array(ranks_oracle)
    for n in (1, 5, 20):
        assert abs(recall_at_n(lib, n) - recall_at_n(oracle, n)) < 1e-12
        assert abs(ndcg_at_n(lib, n) - ndcg_at_n(oracle, n)) < 1e-12
    report("metric-oracle", "1000 randomized cases, exact rank agreement")


def test_data_protocol():
    """5-core fixpoint property and exact leave-one-out reconstruction."""
    rng = np.random.default_rng(13)
    pairs = {(f"u{rng.integers(40)}", f"i{rng.integers(30)}") for _ in range(900)}
    log = make_log([(u, i, int(rng.integers(1000))) for u, i in sorted(pairs)])

    filtered = k_core_filter(log, 5)
    from collections import Counter
    u_deg = Counter(r.user_key for r in filtered.interactions)
    i_deg = Counter(r.item_key for r in filtered.interactions)
    assert min(u_deg.values()) >= 5 and min(i_deg.values()) >= 5
    twice = k_core_filter(filtered, 5)
    assert [(r.user_key, r.item_key) for r in twice.interactions] == [
        (r.user_key, r.item_key) for r in filtered.interactions]

    ds = leave_one_out_split(filtered)
    inv_u = {v: k for k, v in ds.user_index.items()}
    inv_i = {v: k for k, v in ds.item_index.items()}
    rebuilt = set()
    for u in range(ds.n_users):
        parts = ds.train[u] + [ds.validation[u], ds.test[u]]
        assert len(set(parts)) == len(parts)
        assert len(ds.train[u]) >= 3  # 5-core minus the two held out
        rebuilt.update((inv_u[u], inv_i[i]) for i in parts)
    assert rebuilt == {(r.user_key, r.item_key) for r in filtered.interactions}
    report("data-protocol",
           f"{ds.n_users} users / {ds.n_items} items, fixpoint + reconstruction exact")


def test_toy_end_to_end(toy_ds):
    """Separable 2-user/4-item instance: validation NDCG@20 hits 1.0 inside 200 epochs."""
    started = time.perf_counter()
    state = make_state(toy_ds, method="euler", t1=0.9, steps=1, n_hops=2,
                       dims=8, std=0.1, seed=1, allow_isolated_items=True)
    cfg = TrainConfig(learning_rate=0.05, l2_lambda=1e-4, batch_size=4,
                      max_epochs=200, patience=500, seed=1)
    hook = lambda s: evaluate(final_embeddings(s), toy_ds, "validation", [20])
    history, best = fit(toy_ds, state, cfg, hook)
    elapsed = time.perf_counter() - started
    perfect = [h.epoch for h in history if h.ndcg20 == 1.0]
    assert perfect and perfect[0] <= 200
    assert history[1].loss < history[0].loss  # strict first-epoch decrease
    assert evaluate(final_embeddings(best), toy_ds, "validation", [20]).ndcg_at(20) == 1.0
    assert elapsed < 10.0
    report("toy-end-to-end",
           f"NDCG@20=1.0 from epoch {perfect[0]}, loss {history[0].loss:.4f}->"
           f"{history[1].loss:.4f}, {elapsed:.1f}s")


def test_determinism_byte_identical_logs(tmp_path):
    """Two identical single-threaded runs off one config file produce
    byte-identical training logs (timing column suppressed: wall-clock is the
    one value that legitimately varies between runs)."""
    rng = np.random.default_rng(1)
    lines = []
    for u in range(10):
        for t, i in enumerate(rng.choice(8, size=5, replace=False)):
            lines.append(f"u{u} i{i} {t}")
    raw = tmp_path / "raw.txt"
    raw.write_text("\n".join(lines) + "\n")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        f"dataset = {raw}\nk_core = 2\ndims = 8\nbatch_size = 16\n"
        "max_epochs = 4\nseed = 3\nlog_timing = false\n"
    )
    payloads = []
    for name in ("one", "two"):
        outdir = tmp_path / name
        argv = ["train", "--config", str(cfg_file), "--outdir", str(outdir)]
        assert main(argv) == EXIT_OK
        payloads.append((outdir / "train_log.csv").read_bytes()
                        + (outdir / "metrics.csv").read_bytes())
    assert payloads[0] == payloads[1]
    report("determinism", f"{len(payloads[0])} bytes compared equal")


BEAUTY_ENV = "ODECF_DATA_BEAUTY"


@pytest.mark.skipif(BEAUTY_ENV not in os.environ,
                    reason=f"set {BEAUTY_ENV} to the Amazon Beauty review file "
                           "(user item [rating] timestamp) to run the desk-scale "
                           "reproduction; non-blocking")
def test_beauty_desk_scale_stretch(tmp_path):
    """Full-scale reproduction: Recall@20 >= 0.076, NDCG@20 >= 0.032, beats baseline."""
    raw = os.environ[BEAUTY_ENV]
    log, _ = parse_interactions(raw, columns=os.environ.get("ODECF_DATA_COLUMNS",
                                                            "user,item,time"))
    log = k_core_filter(log, 5)
    ds = leave_one_out_split(log)
    results = {}
    for method in ("euler", "lightgcn"):
        outdir = tmp_path / method
        argv = ["train"]
        for pair in (f"dataset={raw}", f"outdir={outdir}", f"method={method}",
                     "max_epochs=400", "patience=50"):
            argv += ["--set", pair]
        assert main(argv) == EXIT_OK
        rows = [l.split(",") for l in (outdir / "metrics.csv").read_text().splitlines()
                if l.startswith("test,20,")]
        results[method] = (float(rows[0][2]), float(rows[0][3]))
    recall, ndcg = results["euler"]
    assert recall >= 0.076 and ndcg >= 0.032
    assert recall > results["lightgcn"][0]
    report("beauty-stretch", f"recall@20={recall:.6f} ndcg@20={ndcg:.6f}")
