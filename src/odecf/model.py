"""Embedding dynamics: ODE derivative, fixed-grid solvers, and the layer-combination baseline.

The trainable state is the initial embedding matrix e0 (users stacked above
items) plus optional per-hop scalar weights. The derivative of the dynamics is
g(E) = c A^K E - E: K hops of the normalized adjacency A, scaled by the product
c of the hop weights. Euler, RK4 and the baseline all map e0 to the final
embeddings by a symmetric polynomial p(A), so the exact reverse pass is p(A)
applied to the cotangent, run by the same routine as the forward pass. The
hop weights need one scalar more, dL/dc, and no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseAdjacency, spmm


class ModelError(ValueError):
    """Raised for invalid model configuration or out-of-range ids."""


class SolverError(RuntimeError):
    """Raised when integration produces non-finite values."""


_METHODS = ("euler", "rk4")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-grid solver setup over [0, t1] with uniform step size t1/steps."""

    method: str = "euler"
    t1: float = 0.9
    steps: int = 1
    n_hops: int = 2
    use_weights: bool = False

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ModelError(f"unknown solver method {self.method!r}; expected one of {_METHODS}")
        if not (np.isfinite(self.t1) and self.t1 > 0):
            raise ModelError(f"integration end time must be positive and finite, got {self.t1}")
        if self.steps < 1:
            raise ModelError(f"step count must be >= 1, got {self.steps}")
        if self.n_hops < 1:
            raise ModelError(f"hop count must be >= 1, got {self.n_hops}")

    @property
    def step_size(self) -> float:
        return self.t1 / self.steps


@dataclass(eq=False)
class ModelState:
    """Trainable embeddings plus the frozen graph and solver configuration."""

    e0: np.ndarray
    hop_weights: np.ndarray | None
    adjacency: SparseAdjacency
    solver: SolverConfig

    def __post_init__(self):
        if self.solver.use_weights:
            if self.hop_weights is None or len(self.hop_weights) != self.solver.n_hops:
                raise ModelError("hop_weights must have one entry per hop when enabled")
            self.hop_weights = np.asarray(self.hop_weights, dtype=np.float64)
        elif self.hop_weights is not None:
            raise ModelError("hop_weights given but solver.use_weights is off")

    @classmethod
    def create(cls, e0: np.ndarray, adjacency: SparseAdjacency, solver: SolverConfig) -> "ModelState":
        weights = np.ones(solver.n_hops) if solver.use_weights else None
        return cls(e0=np.asarray(e0, dtype=np.float64), hop_weights=weights,
                   adjacency=adjacency, solver=solver)

    def copy(self) -> "ModelState":
        return ModelState(
            e0=self.e0.copy(),
            hop_weights=None if self.hop_weights is None else self.hop_weights.copy(),
            adjacency=self.adjacency,
            solver=self.solver,
        )


@dataclass(eq=False)
class LightGCNState:
    """Baseline state: K propagation layers combined with fixed layer weights."""

    e0: np.ndarray
    adjacency: SparseAdjacency
    n_layers: int
    layer_weights: np.ndarray

    @classmethod
    def create(cls, e0, adjacency, n_layers, layer_weights=None) -> "LightGCNState":
        return cls(e0=np.asarray(e0, dtype=np.float64), adjacency=adjacency, n_layers=n_layers,
                   layer_weights=_layer_weights(n_layers, layer_weights))

    def copy(self) -> "LightGCNState":
        return LightGCNState(self.e0.copy(), self.adjacency, self.n_layers,
                             self.layer_weights.copy())


def _check_rows(emb: np.ndarray, adjacency: SparseAdjacency) -> np.ndarray:
    emb = np.asarray(emb, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != adjacency.n_nodes:
        raise ModelError(
            f"embedding shape {emb.shape} does not match adjacency over {adjacency.n_nodes} nodes"
        )
    return emb


def _check_finite(emb: np.ndarray) -> np.ndarray:
    if not np.isfinite(emb).all():
        raise SolverError("divergent propagation: non-finite embeddings")
    return emb


def _hops(x, adjacency, n_hops):
    for _ in range(n_hops):
        x = spmm(adjacency, x)
    return x


def _gain(state: ModelState):
    """c = prod(w_k): the hop weights act only through this one scalar (None when off)."""
    return float(np.prod(state.hop_weights)) if state.solver.use_weights else None


def derivative(emb: np.ndarray, state: ModelState) -> np.ndarray:
    """g(E) = c A^K E - E, with c the product of the hop weights (1 when they are off)."""
    emb = _check_rows(emb, state.adjacency)
    y = _hops(emb, state.adjacency, state.solver.n_hops)
    c = _gain(state)
    return (y if c is None else c * y) - emb


def _integrate(state: ModelState, e: np.ndarray, probe: np.ndarray | None = None):
    """Step any N x d matrix ``e`` through the solver grid; returns (result, aux).

    One step is e <- phi(M) e with M = h(c A^K - I): phi(x) = 1 + x for Euler
    and its fourth-order Taylor polynomial for RK4. The whole map is a
    symmetric polynomial in A, hence self-adjoint: the forward pass runs it on
    e0, the reverse pass on the cotangent of the final embeddings.

    ``aux`` is what the hop-weight gradient needs and is None when the weights
    are off. Forward (``probe`` None) it is the tangent phi'(M) e_{s-1} of the
    last step; reverse it is <A^K e, probe>, read off the first hop product.
    """
    cfg = state.solver
    h = cfg.step_size
    c = _gain(state)
    aux = None

    def g(x):
        nonlocal aux, probe
        y = _hops(x, state.adjacency, cfg.n_hops)
        if probe is not None:  # the first hop product, A^K e
            aux, probe = float(np.vdot(y, probe)), None
        return (y if c is None else c * y) - x

    e = _check_rows(e, state.adjacency)
    forward = probe is None
    for step in range(cfg.steps):
        keep_tangent = forward and c is not None and step == cfg.steps - 1
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports divergence
            if cfg.method == "euler":
                aux = e if keep_tangent else aux
                e = e + h * g(e)
            else:
                k1 = g(e)
                k2 = g(e + 0.5 * h * k1)
                k3 = g(e + 0.5 * h * k2)
                k4 = g(e + h * k3)
                aux = e + (h / 3.0) * (k2 + 2.0 * k3) if keep_tangent else aux
                e = e + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(e)
    return e, aux


def integrate(state: ModelState) -> np.ndarray:
    """Integrate the dynamics from e0 over [0, t1]; returns the final embeddings."""
    return _integrate(state, state.e0)[0]


def _layer_weights(n_layers: int, layer_weights) -> np.ndarray:
    if n_layers < 0:
        raise ModelError(f"layer count must be >= 0, got {n_layers}")
    if layer_weights is None:
        return np.full(n_layers + 1, 1.0 / (n_layers + 1))
    layer_weights = np.asarray(layer_weights, dtype=np.float64)
    if layer_weights.shape != (n_layers + 1,):
        raise ModelError(f"need {n_layers + 1} layer weights, got shape {layer_weights.shape}")
    return layer_weights


def lightgcn_forward(e0: np.ndarray, adjacency: SparseAdjacency, n_layers: int,
                     layer_weights=None) -> np.ndarray:
    """Layer-combination forward: E_f = sum_l w_l A^l E_0, uniform weights by default.

    A symmetric polynomial in A, so it is also its own reverse pass.
    """
    layer_weights = _layer_weights(n_layers, layer_weights)
    e0 = _check_rows(e0, adjacency)
    acc = layer_weights[0] * e0
    cur = e0
    for l in range(1, n_layers + 1):
        cur = spmm(adjacency, cur)
        acc = acc + layer_weights[l] * cur
    return _check_finite(acc)


def model_forward(state):
    """Final embeddings and the reverse pass's context: (fe, ctx).

    ctx is the one N x d tangent of the last solver step when hop weights
    train, and None otherwise.
    """
    if isinstance(state, ModelState):
        return _integrate(state, state.e0)
    return lightgcn_forward(state.e0, state.adjacency, state.n_layers, state.layer_weights), None


def model_backward(state, ctx, d_fe):
    """Exact reverse pass: (d_e0, d_hop_weights or None) for the cotangent d_fe.

    d_e0 = p(A) d_fe, the forward map applied to the cotangent. The hop
    weights get dL/dc = h * steps * <A^K d_fe, ctx> and
    dL/dw_k = (prod_{j != k} w_j) dL/dc.
    """
    if not isinstance(state, ModelState):
        return lightgcn_forward(d_fe, state.adjacency, state.n_layers, state.layer_weights), None
    cfg = state.solver
    if cfg.use_weights and ctx is None:
        raise ModelError("the hop-weight gradient needs the ctx returned by model_forward")
    d_e0, dot = _integrate(state, d_fe, ctx)
    if not cfg.use_weights:
        return d_e0, None
    w = state.hop_weights
    others = np.array([np.prod(np.delete(w, k)) for k in range(len(w))])
    return d_e0, others * (cfg.step_size * cfg.steps * dot)


def final_embeddings(state) -> np.ndarray:
    return model_forward(state)[0]


def predict_scores(e_final: np.ndarray, n_users: int, user: int, items) -> np.ndarray:
    """Inner-product scores between one user row and the given item rows."""
    e_final = np.asarray(e_final)
    items = np.asarray(list(items) if isinstance(items, (set, frozenset)) else items,
                       dtype=np.int64)
    n_items = e_final.shape[0] - n_users
    if not 0 <= user < n_users:
        raise ModelError(f"user id {user} out of range [0, {n_users})")
    if items.size and (items.min() < 0 or items.max() >= n_items):
        raise ModelError(f"item ids out of range [0, {n_items})")
    return e_final[n_users + items] @ e_final[user]


def init_embeddings(n_rows: int, dims: int, std: float, seed: int) -> np.ndarray:
    """Seeded i.i.d. Gaussian initial embeddings, mean 0 and the given std."""
    if n_rows < 1 or dims < 1:
        raise ModelError(f"embedding shape ({n_rows}, {dims}) must be positive")
    if not std > 0:
        raise ModelError(f"init std must be > 0, got {std}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, std, size=(n_rows, dims))


_BINARY_MAGIC = b"EMBF64LE"


def save_embeddings(path, emb: np.ndarray, binary: bool = False) -> None:
    """Write an embedding snapshot; text is round-trip lossless, binary is raw <f8."""
    emb = np.ascontiguousarray(emb, dtype=np.float64)
    if emb.ndim != 2:
        raise ModelError("embedding snapshots must be 2-D")
    if binary:
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(np.array(emb.shape, dtype="<i8").tobytes())
            fh.write(emb.astype("<f8", copy=False).tobytes())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{emb.shape[0]} {emb.shape[1]}\n")
            for row in emb:
                fh.write(" ".join(repr(float(x)) for x in row))
                fh.write("\n")


def load_embeddings(path) -> np.ndarray:
    """Read a snapshot written by :func:`save_embeddings`; format auto-detected."""
    with open(path, "rb") as fh:
        head = fh.read(len(_BINARY_MAGIC))
        if head == _BINARY_MAGIC:
            shape = np.frombuffer(fh.read(16), dtype="<i8")
            data = np.frombuffer(fh.read(), dtype="<f8")
            if data.size != shape[0] * shape[1]:
                raise ModelError(f"snapshot {path} is truncated")
            return data.reshape(int(shape[0]), int(shape[1])).copy()
    with open(path, "r", encoding="utf-8") as fh:
        rows, dims = (int(x) for x in fh.readline().split())
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (rows, dims):
        raise ModelError(f"snapshot {path} header says {(rows, dims)}, data is {data.shape}")
    return data
