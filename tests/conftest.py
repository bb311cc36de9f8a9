import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import odecf
from odecf.data import SplitDataset, synthetic_split
from odecf.graph import build_adjacency
from odecf.model import ModelState, SolverConfig, init_embeddings


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# for tests that compare runs under OPENBLAS_NUM_THREADS=1 and =2
two_blas_threads = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one core: BLAS runs one thread whatever the setting, so the two runs cannot differ")


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that returns with threads alive that were not alive at its start:
    ranking runs on the calling thread, and a sweep's process pool is shut down
    before the sweep returns."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads still running after the test: {', '.join(left)}")


def traced_peak(fn, *args):
    """Run ``fn(*args)`` under ``tracemalloc`` and return ``(peak, held)``: the most bytes
    allocated at once during the call, and the bytes still allocated when it returned,
    which hold what it returned."""
    tracemalloc.start()
    try:
        out = fn(*args)  # alive for the count, as the caller would hold it
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held


def run_fresh(argv, **env):
    """Run ``python *argv`` in a new interpreter that imports the odecf under test,
    with each ``env`` variable set over this environment (None unsets it), assert
    that it succeeds and return its stdout."""
    paths = [str(Path(odecf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **env)
    env = {name: value for name, value in env.items() if value is not None}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def toy_ds():
    """Separable 2-user/4-item instance.

    Both users train on item 0, so the graph links them; each user's
    validation item is the other user's private train item, and item 3 is
    everyone's held-out test item (hence train-isolated).
    """
    return SplitDataset(
        n_users=2,
        n_items=4,
        train_indptr=np.array([0, 2, 4]),
        train_items=np.array([0, 1, 0, 2]),
        validation=np.array([2, 1]),
        test=np.array([3, 3]),
        user_index={"u0": 0, "u1": 1},
        item_index={f"i{i}": i for i in range(4)},
    )


@pytest.fixture
def small_ds():
    return synthetic_split(n_users=6, n_items=8, seed=11, min_train=3, max_train=4)


@pytest.fixture
def small_adj(small_ds):
    return build_adjacency(small_ds)


def make_state(ds, method="euler", t1=0.9, steps=1, n_hops=2, use_weights=False,
               dims=4, std=0.5, seed=0, allow_isolated_items=False):
    adjacency = build_adjacency(ds, allow_isolated_items=allow_isolated_items)
    solver = SolverConfig(method=method, t1=t1, steps=steps, n_hops=n_hops,
                          use_weights=use_weights)
    e0 = init_embeddings(ds.n_users + ds.n_items, dims, std, seed)
    return ModelState.create(e0, adjacency, solver)


def lightgcn_state(e0, adjacency, n_hops):
    """The LightGCN baseline's state: the mean of A^0 e0 .. A^K e0 with K = ``n_hops``."""
    return ModelState.create(e0, adjacency, SolverConfig(method="lightgcn", n_hops=n_hops))


def dense_hops(adj_dense, emb, n_hops, weights=None):
    """Dense reference for the propagation chain."""
    x = emb
    for k in range(n_hops):
        x = adj_dense @ x
        if weights is not None:
            x = weights[k] * x
    return x
