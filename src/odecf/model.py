"""Embedding dynamics: one propagation routine with three rules, Euler, RK4 and the LightGCN mean.

The trainable state is the initial embedding matrix e0 (users stacked above
items) plus optional per-hop scalar weights. Under Euler and RK4 the
derivative of the dynamics is g(E) = c A^K E - E: K hops of the normalized
adjacency A, scaled by the product c of the hop weights, integrated on a fixed
grid. The LightGCN baseline is the uniform mean of A^l e0 for l = 0..K. All
three map e0 to the final embeddings by a symmetric polynomial p(A), so the
exact reverse pass is p(A) applied to the cotangent, run by the same routine
as the forward pass. The hop weights need one scalar more, dL/dc, and no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseAdjacency, spmm


class ModelError(ValueError):
    """Raised for invalid model configuration or out-of-range ids."""


class SolverError(RuntimeError):
    """Raised when integration produces non-finite values."""


_METHODS = ("euler", "rk4", "lightgcn")


@dataclass(frozen=True)
class SolverConfig:
    """Propagation setup: a fixed grid over [0, t1] with uniform step size t1/steps,
    or, for ``lightgcn``, the mean of A^0..A^K with K = ``n_hops`` >= 0; that rule
    ignores ``t1`` and ``steps`` and takes no hop weights."""

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
        least = 0 if self.method == "lightgcn" else 1
        if self.n_hops < least:
            raise ModelError(f"hop count must be >= {least} for {self.method}, got {self.n_hops}")
        if self.method == "lightgcn" and self.use_weights:
            raise ModelError("lightgcn takes no hop weights; set use_weights to false")

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


class LightGCNState:
    """The benchmark's spelling of a lightgcn :class:`ModelState` with K = ``n_layers``."""

    @staticmethod
    def create(e0, adjacency, n_layers) -> ModelState:
        return ModelState.create(e0, adjacency, SolverConfig(method="lightgcn", n_hops=n_layers))


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


def _integrate(state: ModelState, e: np.ndarray, probe: np.ndarray | None = None):
    """Map any N x d matrix ``e`` by the state's polynomial in A; returns (result, aux).

    One solver step is e <- phi(M) e with M = h(c A^K - I): phi(x) = 1 + x for
    Euler and its fourth-order Taylor polynomial for RK4. LightGCN takes the
    mean of A^0 e..A^K e instead, with aux None. Each map is a symmetric
    polynomial in A, hence self-adjoint: the forward pass runs it on e0, the
    reverse pass on the cotangent of the final embeddings.

    ``aux`` is what the hop-weight gradient needs and is None when the weights
    are off. Forward (``probe`` None) it is the tangent phi'(M) e_{s-1} of the
    last step; reverse it is <A^K e, probe>, read off the first hop product.
    """
    cfg = state.solver
    e = _check_rows(e, state.adjacency)
    if cfg.method == "lightgcn":
        weight = 1.0 / (cfg.n_hops + 1)
        acc, cur = weight * e, e
        for _ in range(cfg.n_hops):
            cur = spmm(state.adjacency, cur)
            acc += weight * cur
        return _check_finite(acc), None
    h = cfg.step_size
    c = _gain(state)
    aux = None

    def g(x):
        nonlocal aux, probe
        y = _hops(x, state.adjacency, cfg.n_hops)
        if probe is not None:  # the first hop product, A^K e
            aux, probe = float(np.vdot(y, probe)), None
        if c is not None:
            y *= c
        y -= x
        return y

    def shifted(k, scale, reuse):
        """e + scale * k, written over k when ``reuse``."""
        x = np.multiply(k, scale, out=k if reuse else None)
        x += e
        return x

    forward = probe is None
    for step in range(cfg.steps):
        keep_tangent = forward and c is not None and step == cfg.steps - 1
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports divergence
            if cfg.method == "euler":
                aux = e if keep_tangent else aux
                e = e + h * g(e)
            else:  # e + h/6 (k1 + 2 k2 + 2 k3 + k4) and the tangent e + h/3 (k2 + 2 k3),
                # summed as the stages come; a stage needed no more becomes the next one's input
                k = g(e)
                total = k
                k = g(shifted(k, 0.5 * h, reuse=False))
                total += 2.0 * k
                tangent = k if keep_tangent else None
                k = g(shifted(k, 0.5 * h, reuse=not keep_tangent))
                total += 2.0 * k
                if keep_tangent:
                    tangent += 2.0 * k
                    tangent *= h / 3.0
                    tangent += e
                    aux = tangent
                k = g(shifted(k, h, reuse=True))
                total += k
                total *= h / 6.0
                total += e
                e = total
        _check_finite(e)
    return e, aux


def model_forward(state):
    """Final embeddings and the reverse pass's context: (fe, ctx).

    ctx is the one N x d tangent of the last solver step when hop weights
    train, and None otherwise.
    """
    return _integrate(state, state.e0)


def model_backward(state, ctx, d_fe):
    """Exact reverse pass: (d_e0, d_hop_weights or None) for the cotangent d_fe.

    d_e0 = p(A) d_fe, the forward map applied to the cotangent. The hop
    weights get dL/dc = h * steps * <A^K d_fe, ctx> and
    dL/dw_k = (prod_{j != k} w_j) dL/dc.
    """
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


def init_embeddings(n_rows: int, dims: int, std: float, seed: int) -> np.ndarray:
    """Seeded i.i.d. Gaussian initial embeddings, mean 0 and the given std."""
    if n_rows < 1 or dims < 1:
        raise ModelError(f"embedding shape ({n_rows}, {dims}) must be positive")
    if not std > 0:
        raise ModelError(f"init std must be > 0, got {std}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, std, size=(n_rows, dims))

