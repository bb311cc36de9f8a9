"""Run sets of benchmark runs and say whether they agree within the benchmark's bounds.

    python3 perfbench/steady.py

Two sets of ten runs per workload BENCHMARK.json lists. Each run is a fresh
``run.py`` process of ``run_seconds`` (from BENCHMARK.json) with its own seed
(set s, run r uses seed 1 + s*RUNS + r). For every workload and end-to-end
metric it prints each set's median and quartiles, the spread (quartile
distance over median), whether that spread is within the bound (and within a
third of it, the margin aimed for), and whether the last set's median is
within the bound of the first set's. Sets agree when every spread is within its bound, every
median is, and the failed share is the same in every run.
Results also go to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600
SETS = 2
RUNS = 10  # per set and workload, as the acceptance of a benchmark counts them


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            runs = []
            for r in range(RUNS):
                seed = 1 + s * RUNS + r
                out = one_run(w, seed, spec["run_seconds"])
                runs.append(out)
                print(f"set {s + 1} {w} seed {seed}: correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                      flush=True)
            results[w].append(runs)

    ok = True
    report = {}
    for w in workloads:
        sets = results[w]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= correct and len(shares) == 1
        print(f"\n{w}: all correct={correct}, failed shares={sorted(shares)}")
        report[w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first, last = stats[0]["median"], stats[-1]["median"]
            worse = (last - first) / first if metric["better"] == "lower" else (first - last) / first
            steady = all(st["spread"] <= bound for st in stats)
            margin = all(st["spread"] <= bound / 3 for st in stats)
            agree = worse <= bound
            ok &= steady and agree
            report[w][name] = {"sets": stats, "bound": bound, "worse": worse,
                               "steady": steady, "margin": margin, "agree": agree}
            cells = "  ".join(f"{st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] "
                              f"spread {st['spread']:.3f}" for st in stats)
            print(f"  {name:14s} {metric['unit']:6s} bound {bound:.2f}  {cells}  "
                  f"worse {worse:+.3f}  steady={'yes' if steady else 'NO'} "
                  f"third={'yes' if margin else 'no'} agree={'yes' if agree else 'NO'}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps({"report": report, "runs": results}, indent=1))
    print(f"\n{'all sets agree' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
