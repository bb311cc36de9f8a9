"""In-memory span tracing from outside the program, and the per-layer metrics it yields.

Tracing rebinds module attributes that ``odecf`` looks up at call time, so
no program file changes. A span is (id, name, start, end, parent); spans stay
in memory and are written as JSON lines when the run ends. A target that no
longer exists is skipped, and the metrics derived from it are left out.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name); callers resolve these names at call time.
TARGETS = (
    ("odecf.model", "spmm", "graph.spmm"),
    ("odecf.train", "epoch_triplets", "train.sample"),
    ("odecf.train", "loss_and_grads", "train.loss_and_grads"),
    ("odecf.train", "model_forward", "model.forward"),
    ("odecf.train", "backward", "train.backward"),
    ("odecf.train", "model_backward", "model.reverse"),
    ("odecf.train", "adam_step", "train.adam"),
    ("odecf.evaluation", "rank_all", "eval.rank"),
)


def _nbytes(obj, seen=None) -> int:
    """Bytes of every ndarray reachable from ``obj`` (each counted once)."""
    seen = set() if seen is None else seen
    if obj is None or id(obj) in seen:
        return 0
    seen.add(id(obj))
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x, seen) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(x, seen) for x in vars(obj).values())
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def add(self, name: str, start: float, end: float, parent=None) -> None:
        """Record a span whose bounds were measured elsewhere (e.g. an epoch)."""
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent})

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "model.forward" and isinstance(out, tuple) and len(out) == 2:
                span["tape_bytes"] = _nbytes(out[1])
            return out

        return traced

    def install(self) -> None:
        """Rebind every target to a span-recording wrapper."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _dur(s):
    return s["end"] - s["start"]


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans, n_users, epochs, overhead_s):
    """Per-layer metrics (name -> (value, unit)) from one traced run's spans.

    ``epochs`` counts the traced training epochs; ``overhead_s`` is traced minus
    untraced round time. Metrics whose spans are absent are left out.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def under(span, name):
        p = span["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    def named(name, within=None):
        return [s for s in spans if s["name"] == name and (within is None or under(s, within))]

    def self_time(span):
        return _dur(span) - sum(_dur(c) for c in children.get(span["id"], ()))

    out = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = (float(value), unit)

    for metric, span_name in (("data.parse_s", "data.parse"), ("data.kcore_s", "data.kcore"),
                              ("data.split_s", "data.split"), ("graph.build_s", "graph.build")):
        put(metric, _median([_dur(s) for s in named(span_name)]), "s")

    steps = named("train.loss_and_grads")
    adams = named("train.adam")
    train_spmm = named("graph.spmm", within="train.loss_and_grads")
    if steps:
        put("graph.spmm_calls_per_step", len(train_spmm) / len(steps), "count")
        put("train.steps", len(steps) / epochs, "count")
    if train_spmm:
        put("graph.spmm_ms_p50", 1e3 * _median([_dur(s) for s in train_spmm]), "ms")
        put("graph.spmm_s_per_epoch", sum(_dur(s) for s in train_spmm) / epochs, "s")
    fwd = named("model.forward")
    put("model.forward_ms_p50", 1e3 * _median([_dur(s) for s in fwd]) if fwd else None, "ms")
    rev = named("model.reverse")
    put("model.reverse_ms_p50", 1e3 * _median([_dur(s) for s in rev]) if rev else None, "ms")
    tapes = [s["tape_bytes"] for s in fwd if "tape_bytes" in s]
    put("model.tape_mb", max(tapes) / 2**20 if tapes else None, "MB")
    put("model.final_embeddings_s",
        _median([_dur(s) for s in named("model.final_embeddings", within="eval.validation")]), "s")
    put("train.sample_s", _median([_dur(s) for s in named("train.sample")]), "s")
    bwd = named("train.backward")
    put("train.score_head_ms_p50", 1e3 * _median([self_time(s) for s in bwd]) if bwd else None, "ms")
    put("train.adam_ms_p50", 1e3 * _median([_dur(s) for s in adams]) if adams else None, "ms")
    # A step runs from its loss-and-gradient call to the end of the Adam update after it.
    step_s = [a["end"] - s["start"] for s, a in zip(steps, adams)]
    if step_s:
        put("train.step_ms_p50", 1e3 * statistics.median(step_s), "ms")
    if len(step_s) >= 100:  # ten samples beyond the 90th percentile
        put("train.step_ms_p90", 1e3 * statistics.quantiles(step_s, n=10)[8], "ms")
    rank = _median([_dur(s) for s in named("eval.rank", within="eval.validation")])
    put("eval.rank_s", rank, "s")
    put("eval.users_per_s", n_users / rank if rank else None, "1/s")
    put("trace.overhead_s", overhead_s, "s")
    return out
