"""GODE-CF benchmark: one workload end to end, or traced layer by layer.

    python3 perfbench/run.py --workload train-euler --seed 1 --seconds 30 --trace 0

The run generates its raw log from the seed in a child process, then drives
``odecf`` from ``src/`` through its public functions in the order
``cli.run_experiment`` uses: parse, k-core, split, adjacency, init, ``fit``
with a validation hook, final test evaluation. It prints one line per metric
and, last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics, writing its spans to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: the program's hot paths are single-threaded
# (scipy CSR products, np.add.at, Adam), and one BLAS thread keeps the eval
# GEMM from depending on whether a second core happens to be idle.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
GEN_TIMEOUT_S = 150
RANK_SAMPLE = 200
FD_BATCH = 1024
MIN_TRACED_STEPS = 100


def load_program():
    """Import ``odecf`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "odecf" / "__init__.py").is_file():
        sys.exit(f"error: no odecf sources at {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import odecf
    from odecf import data, evaluation, graph, model, train
    if Path(odecf.__file__).resolve().parent != (SRC / "odecf").resolve():
        sys.exit(f"error: imported odecf from {odecf.__file__}, not from {SRC}")
    return data, graph, model, train, evaluation


class Bench:
    def __init__(self, workload, seed, input_path, tracer=None):
        self.w = workload
        self.seed = seed
        self.input_path = input_path
        self.tracer = tracer
        self.data, self.graph, self.model, self.train, self.evaluation = load_program()

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def setup(self):
        """Parse, k-core, split, build the adjacency and initialise, as ``cli.run_experiment`` does."""
        w = self.w
        with self.span("data.parse"):
            log, stats = self.data.parse_interactions(str(self.input_path), "user,item,time")
        with self.span("data.kcore"):
            log = self.data.k_core_filter(log, w.data.k)
        kept = len(log)
        with self.span("data.split"):
            ds = self.data.leave_one_out_split(log)
        del log
        with self.span("graph.build"):
            adj = self.graph.build_adjacency(ds, allow_isolated_items=True)
        with self.span("model.init"):
            e0 = self.model.init_embeddings(ds.n_users + ds.n_items, w.dims, w.init_std, self.seed)
            if w.model == "gode_cf":
                solver = self.model.SolverConfig(method=w.method, t1=w.t1, steps=w.steps,
                                                 n_hops=w.n_hops, use_weights=w.use_weights)
                state = self.model.ModelState.create(e0, adj, solver)
            else:
                state = self.model.LightGCNState.create(e0, adj, w.n_layers)
        return stats, kept, ds, state

    def train_config(self, epochs):
        w = self.w
        # patience above the epoch count: every round trains exactly `epochs` epochs
        return self.train.TrainConfig(learning_rate=w.learning_rate, l2_lambda=w.l2_lambda,
                                      batch_size=w.batch_size, max_epochs=epochs,
                                      patience=epochs + 1, seed=self.seed)

    def run_round(self, ds, initial, epochs, traced=False):
        """One fit from the initial state plus the final test evaluation, timed from outside."""
        tracer = self.tracer if traced else None
        if tracer:
            tracer.install()
        marks = []

        def hook(current):
            entered = time.perf_counter()
            with (tracer.span("eval.validation") if tracer else nullcontext()):
                with (tracer.span("model.final_embeddings") if tracer else nullcontext()):
                    fe = self.model.final_embeddings(current)
                report = self.evaluation.evaluate(fe, ds, "validation", [20])
            marks.append((entered, time.perf_counter()))
            return report

        try:
            with (tracer.span("round") if tracer else nullcontext()) as round_span:
                start = time.perf_counter()
                history, best = self.train.fit(ds, initial.copy(), self.train_config(epochs), hook)
                with (tracer.span("eval.test") if tracer else nullcontext()):
                    fe = self.model.final_embeddings(best)
                    test = self.evaluation.evaluate(fe, ds, "test", [20])
                end = time.perf_counter()
        finally:
            if tracer:
                tracer.uninstall()
        epoch_s, prev = [], start
        for entered, left in marks:
            epoch_s.append(entered - prev)
            if tracer:
                tracer.add("train.epoch", prev, entered, round_span["id"])
            prev = left
        return {
            "run_s": end - start,
            "epoch_s": epoch_s,
            "eval_s": [left - entered for entered, left in marks],
            "history": history,
            "best": best,
            "fe": fe,
            "recall20": test.recall_at(20),
            "ndcg20": test.ndcg_at(20),
            "digest": hashlib.sha256(np.ascontiguousarray(fe).tobytes()).hexdigest(),
            "traced": traced,
        }


def gradient_problem(bench, state, ds):
    """The loss of one seeded triplet batch over the flat trainables, with the program's gradient.

    Returns ``(loss_at, grad, x0, coordinates)``: ``loss_at(x)`` is ``batch_loss`` with
    e0 (and the hop weights, if trained) set from ``x``; ``grad`` is ``loss_and_grads``
    at ``x0``; ``coordinates`` are the indices of the hop weights in ``x``.
    """
    w, train = bench.w, bench.train
    state = state.copy()
    batch = train.sample_triplets(ds, FD_BATCH, np.random.default_rng(bench.seed))
    _, grads = train.loss_and_grads(state, batch, w.l2_lambda)
    n = state.e0.size
    grad, x0 = [grads.grad_e0.ravel()], [state.e0.ravel().copy()]
    if grads.grad_hop_weights is not None:
        grad.append(np.asarray(grads.grad_hop_weights, dtype=np.float64))
        x0.append(np.asarray(state.hop_weights, dtype=np.float64))
    grad, x0 = np.concatenate(grad), np.concatenate(x0)

    def loss_at(x):
        state.e0[...] = x[:n].reshape(state.e0.shape)
        if x.size > n:
            state.hop_weights[...] = x[n:]
        return train.batch_loss(state, batch, w.l2_lambda)

    return loss_at, grad, x0, range(n, x0.size)


def run_checks(bench, truth, stats, ds, initial, last_round, epochs):
    """Every correctness check; returns a list of failure messages."""
    w, data, model, evaluation = bench.w, bench.data, bench.model, bench.evaluation
    failures = []

    def attempt(name, fn):
        try:
            fn()
        except checks.CheckFailed as exc:
            failures.append(f"{name}: {exc}")

    # The program's intermediate logs are re-derived here, after peak RSS was read.
    log, _ = data.parse_interactions(str(bench.input_path), "user,item,time")
    attempt("parse", lambda: checks.check_parse(stats, log, truth))
    kept_log = data.k_core_filter(log, w.data.k)
    alive = checks.peel(truth["users"], truth["items"], int(truth["k"]))
    attempt("kcore", lambda: checks.check_kcore(kept_log, truth, alive))
    reference = checks.expected_split(truth, alive)
    attempt("split", lambda: checks.check_split(ds, reference))
    a_ref = checks.reference_adjacency(len(reference[0]), len(reference[1]), reference[2], reference[3])
    attempt("adjacency", lambda: checks.check_adjacency(initial.adjacency.to_scipy(), a_ref))

    best, fe = last_round["best"], last_round["fe"]
    weights = getattr(best, "hop_weights", None)
    expected = checks.reference_embeddings(w, a_ref, best.e0, weights)
    attempt("embeddings", lambda: checks.check_embeddings(fe, expected))

    def gradient():
        loss_at, grad, x0, coordinates = gradient_problem(bench, best, ds)
        rel = checks.check_gradient(loss_at, grad, x0, np.random.default_rng([bench.seed, 1]),
                                    coordinates)
        print(f"# gradient check: worst relative error {rel:.2e}")

    attempt("gradient", gradient)
    initial_ndcg = evaluation.evaluate(model.final_embeddings(initial), ds, "test", [20]).ndcg_at(20)
    attempt("fit", lambda: checks.check_fit(last_round["history"], epochs,
                                            last_round["ndcg20"], initial_ndcg))
    ranks = [r.rank for r in evaluation.rank_all(fe, ds, "test")]
    users = np.random.default_rng(bench.seed).choice(ds.n_users, size=min(RANK_SAMPLE, ds.n_users),
                                                     replace=False)
    attempt("ranks", lambda: checks.check_ranks(fe, ds, ranks, users.tolist()))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)

    load_program()  # fail before generating anything when the sources are missing
    work = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", w.name,
                    "--seed", str(args.seed), "--out", str(work)],
                   check=True, timeout=GEN_TIMEOUT_S)
    truth = dict(np.load(work / "truth.npz"))
    tracer = Tracer() if trace else None
    bench = Bench(w, args.seed, work / "input.txt", tracer)

    setup_s = []

    def set_up():
        started = time.perf_counter()
        result = bench.setup()
        setup_s.append(time.perf_counter() - started)
        return result

    # Warm-up, untimed: the first set-up and a one-epoch round, which builds the
    # lazily cached CSR matrix and touches every code path once.
    stats, kept, ds, initial = set_up()
    setup_s.clear()
    if tracer:
        tracer.spans.clear()
    bench.run_round(ds, initial, 1)

    rounds = []
    began = time.perf_counter()
    while True:
        # Set-ups are sampled before every round, so they see the same stretches
        # of the run as the rounds do; their outputs are dropped.
        for _ in range(w.setups_per_round):
            set_up()
        if trace:
            rounds.append(bench.run_round(ds, initial, w.epochs, traced=False))
            rounds.append(bench.run_round(ds, initial, w.epochs, traced=True))
        else:
            rounds.append(bench.run_round(ds, initial, w.epochs))
        for older in rounds[:-1]:  # only the last round's state is checked; keep RSS flat
            older.pop("best", None)
            older.pop("fe", None)
        elapsed = time.perf_counter() - began
        per_batch = elapsed / (len(rounds) // 2 if trace else len(rounds))
        traced_steps = sum(1 for s in tracer.spans if s["name"] == "train.adam") if trace else 0
        short_of_steps = trace and traced_steps < MIN_TRACED_STEPS and len(rounds) < 200
        if elapsed + per_batch > args.seconds and not short_of_steps:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = run_checks(bench, truth, stats, ds, initial, rounds[-1], w.epochs)
    if len({(r["digest"], r["ndcg20"]) for r in rounds}) != 1:
        failures.append("determinism: rounds from the same initial state disagree")
    attempted = len(rounds) * (w.epochs + 1)
    failed = sum(w.epochs - len(r["history"]) for r in rounds)

    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        overhead = statistics.median([r["run_s"] for r in traced]) - statistics.median([r["run_s"] for r in plain])
        metrics = layer_metrics(tracer.spans, ds.n_users, len(traced) * w.epochs, overhead)
        metrics["data.interactions_kept"] = (float(kept), "count")
        tracer.write(work / "spans.jsonl")
        for name in tracer.missing:
            print(f"# trace target {name} is absent; its layer metrics are left out")
    else:
        epoch_s = [x for r in plain for x in r["epoch_s"]]
        eval_s = [x for r in plain for x in r["eval_s"]]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "run_s": (statistics.median([r["run_s"] for r in plain]), "s"),
            "epoch_s": (statistics.median(epoch_s), "s"),
            "eval_s": (statistics.median(eval_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "test_recall20": (rounds[0]["recall20"], "recall"),
            "test_ndcg20": (rounds[0]["ndcg20"], "ndcg"),
        }
        print(f"# samples: setup {len(setup_s)}, rounds {len(plain)}, epochs {len(epoch_s)}, "
              f"validation passes {len(eval_s)}")

    for path in (work / "input.txt", work / "truth.npz"):
        path.unlink()
    print(f"# workload {w.name} seed {args.seed}: {ds.n_users} users, {ds.n_items} items, "
          f"{ds.n_train_interactions()} train interactions")
    print(f"# python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__} "
          f"blas_threads {BLAS_THREADS} nproc {os.cpu_count()}")
    for message in failures:
        print(f"# CHECK FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
