"""The program names the benchmark under ``perfbench/`` reads.

The span tracer skips a target that no longer resolves, and the layer metric
built on it silently disappears, so a rename must fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from odecf.data import synthetic_split
from odecf.evaluation import rank_all
from odecf.graph import build_adjacency

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attr, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_adjacency_and_ranks_keep_their_shape():
    ds = synthetic_split(n_users=6, n_items=8, seed=1)
    assert isinstance(build_adjacency(ds).to_scipy(), sp.csr_matrix)
    fe = np.random.default_rng(2).normal(size=(ds.n_users + ds.n_items, 3))
    ranks = [r.rank for r in rank_all(fe, ds, "test")]
    assert len(ranks) == ds.n_users
    assert all(type(r) is int for r in ranks)
