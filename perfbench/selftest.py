"""Tests of the benchmark's own code; kept out of the repository's test suite.

    python3 -m pytest perfbench/selftest.py -q

The generator must be byte-identical for a seed, and every correctness check
must pass on the program's real outputs and reject a deliberately wrong one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import checks
import gen
import run
from workloads import WORKLOADS, DataSpec

SMALL = DataSpec(users=200, items=90, min_per_user=5, mean_extra=4.0, max_per_user=20,
                 factors=4, affinity=2.5, pop_alpha=0.8, sub_k_users=20, rare_items=15,
                 duplicate_share=0.1, malformed=12, tie_share=0.3)


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    gen.write("train-euler", 7, tmp_path / "a")
    gen.write("train-euler", 7, tmp_path / "b")
    gen.write("train-euler", 8, tmp_path / "c")
    for name in ("input.txt", "truth.npz"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "input.txt").read_bytes() != (tmp_path / "c" / "input.txt").read_bytes()


def test_training_workloads_share_their_data():
    a, b = WORKLOADS["train-euler"], WORKLOADS["train-rk4-weighted"]
    assert a.data == b.data
    assert replace(a, name=b.name, why=b.why, method=b.method, use_weights=b.use_weights) == b


@pytest.fixture(scope="module", params=["train-rk4-weighted", "wide-catalog"])
def pipeline(request, tmp_path_factory):
    """A small workload driven through the program, with its truth and outputs."""
    w = replace(WORKLOADS[request.param], data=SMALL, epochs=3, batch_size=256)
    lines, truth = gen.generate(SMALL, seed=5)
    path = tmp_path_factory.mktemp(request.param) / "input.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bench = run.Bench(w, 5, path)
    stats, _, ds, initial = bench.setup()
    rnd = bench.run_round(ds, initial, w.epochs)
    log, _ = bench.data.parse_interactions(str(path))
    kept = bench.data.k_core_filter(log, SMALL.k)
    alive = checks.peel(truth["users"], truth["items"], SMALL.k)
    reference = checks.expected_split(truth, alive)
    a_ref = checks.reference_adjacency(len(reference[0]), len(reference[1]),
                                       reference[2], reference[3])
    return {"w": w, "bench": bench, "truth": truth, "stats": stats, "log": log, "kept": kept,
            "ds": ds, "initial": initial, "round": rnd, "alive": alive, "reference": reference,
            "a_ref": a_ref}


def test_all_checks_pass_on_real_outputs(pipeline):
    failures = run.run_checks(pipeline["bench"], pipeline["truth"], pipeline["stats"],
                              pipeline["ds"], pipeline["initial"], pipeline["round"],
                              pipeline["w"].epochs)
    assert failures == []


def test_parse_check_rejects_wrong_counts(pipeline):
    stats = replace(pipeline["stats"], duplicates=pipeline["stats"].duplicates + 1)
    with pytest.raises(checks.CheckFailed, match="duplicates"):
        checks.check_parse(stats, pipeline["log"], pipeline["truth"])


def test_kcore_check_rejects_a_missing_survivor(pipeline):
    kept = pipeline["kept"]
    short = replace(kept, interactions=kept.interactions[1:])
    with pytest.raises(checks.CheckFailed, match="k-core"):
        checks.check_kcore(short, pipeline["truth"], pipeline["alive"])


def test_split_check_rejects_swapped_holdouts(pipeline):
    ds = pipeline["ds"]
    swapped = replace(ds, validation=list(ds.test), test=list(ds.validation))
    with pytest.raises(checks.CheckFailed, match="split"):
        checks.check_split(swapped, pipeline["reference"])


def test_adjacency_check_rejects_a_perturbed_value(pipeline):
    a = pipeline["initial"].adjacency.to_scipy().copy()
    a.data[0] += 1e-9
    with pytest.raises(checks.CheckFailed, match="adjacency"):
        checks.check_adjacency(a, pipeline["a_ref"])


def _expected(pipeline):
    best = pipeline["round"]["best"]
    return checks.reference_embeddings(pipeline["w"], pipeline["a_ref"], best.e0,
                                       getattr(best, "hop_weights", None))


def test_embedding_check_rejects_a_1e6_perturbation(pipeline):
    fe = pipeline["round"]["fe"].copy()
    checks.check_embeddings(fe, _expected(pipeline))
    fe[3, 1] += 1e-6
    with pytest.raises(checks.CheckFailed, match="polynomial"):
        checks.check_embeddings(fe, _expected(pipeline))


def test_embedding_check_rejects_all_nan(pipeline):
    fe = np.full_like(pipeline["round"]["fe"], np.nan)
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_embeddings(fe, _expected(pipeline))


def _gradient_check(pipeline, tamper):
    loss_at, grad, x0, coordinates = run.gradient_problem(pipeline["bench"], pipeline["round"]["best"],
                                                          pipeline["ds"])
    tamper(grad, coordinates)
    return checks.check_gradient(loss_at, grad, x0, np.random.default_rng(3), coordinates)


def test_gradient_check_rejects_zeroed_hop_weight_gradients(pipeline):
    if pipeline["w"].model != "gode_cf":
        pytest.skip("LightGCN has no hop weights")
    _gradient_check(pipeline, lambda grad, coordinates: None)

    def zero_hop_weights(grad, coordinates):
        grad[list(coordinates)] = 0.0

    with pytest.raises(checks.CheckFailed, match="gradient"):
        _gradient_check(pipeline, zero_hop_weights)


def test_gradient_check_rejects_dropped_item_rows(pipeline):
    ds, dims = pipeline["ds"], pipeline["w"].dims

    def drop_item_rows(grad, coordinates):
        grad[ds.n_users * dims:(ds.n_users + ds.n_items) * dims] = 0.0

    with pytest.raises(checks.CheckFailed, match="gradient"):
        _gradient_check(pipeline, drop_item_rows)


def test_fit_check_rejects_a_fit_that_stopped_early(pipeline):
    rnd, epochs = pipeline["round"], pipeline["w"].epochs
    checks.check_fit(rnd["history"], epochs, rnd["ndcg20"], 0.0)
    with pytest.raises(checks.CheckFailed, match="fit: ran epochs"):
        checks.check_fit(rnd["history"][:-1], epochs, rnd["ndcg20"], 0.0)


def test_rank_check_rejects_a_rank_off_by_one(pipeline):
    ds, fe = pipeline["ds"], pipeline["round"]["fe"]
    ranks = [r.rank for r in pipeline["bench"].evaluation.rank_all(fe, ds, "test")]
    users = list(range(ds.n_users))
    checks.check_ranks(fe, ds, ranks, users)
    ranks[len(ranks) // 2] += 1
    with pytest.raises(checks.CheckFailed, match="ranks"):
        checks.check_ranks(fe, ds, ranks, users)
