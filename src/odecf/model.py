"""Embedding dynamics: one truncated power series for Euler, RK4 and the LightGCN mean.

The trainable state is the initial embedding matrix e0 (users stacked above
items) plus optional per-hop scalar weights. Under Euler and RK4 the
derivative of the dynamics is g(E) = c A^K E - E: K hops of the normalized
adjacency A, scaled by the product c of the hop weights, integrated on a fixed
grid. Being linear, one step is a truncated Taylor series of M = h(c A^K - I)
applied to E, of order 1 for Euler and 4 for RK4. The LightGCN baseline is the
uniform mean of A^l e0 for l = 0..K. So all three map e0 to the final
embeddings by a symmetric polynomial p(A), run by one loop over powers, and
the exact reverse pass is p(A) applied to the cotangent by the same loop. The
hop weights need one scalar more, dL/dc, and no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseAdjacency, spmm


class ModelError(ValueError):
    """Raised for invalid model configuration or out-of-range ids."""


class SolverError(RuntimeError):
    """Raised when propagation or a training batch's loss produces non-finite values."""


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


def _integrate(state: ModelState, e: np.ndarray, probe: np.ndarray | None = None,
               overwrite: bool = False):
    """Map any N x d matrix ``e`` by the state's polynomial in A; returns (result, aux).

    Every rule is a truncated power series run as one loop over j = 1..top:
    x <- X x, then acc += a_j x, with acc = a_0 e. Euler and RK4 step
    ``steps`` times with X = M = h(c A^K - I), top 1 or 4 and each x scaled by
    1/j in place, so a step is phi(M) e = sum_j M^j e / j!. LightGCN runs one
    pass with X = A, top = K and every a_j = 1/(K+1). Each map is a symmetric
    polynomial in A, hence self-adjoint: the forward pass runs it on e0, the
    reverse pass on the cotangent of the final embeddings.

    ``aux`` is what the hop-weight gradient needs and is None when the weights
    are off. Forward (``probe`` None) it is the tangent phi'(M) e_{s-1} of the
    last step, the partial sum below the top power; reverse it is
    <A^K e, probe>, read off the first hop product.

    ``overwrite`` hands ``e`` over: each step sums in its input's storage, to the same result.
    Steps after the first always do, as their input is the previous step's own output.
    """
    cfg = state.solver
    e = _check_rows(e, state.adjacency)
    taylor = cfg.method != "lightgcn"
    if taylor:
        top, hops, steps, weight = (4 if cfg.method == "rk4" else 1), cfg.n_hops, cfg.steps, 1.0
    else:
        top, hops, steps, weight = cfg.n_hops, 1, 1, 1.0 / (cfg.n_hops + 1)
    h = cfg.step_size
    c = float(np.prod(state.hop_weights)) if cfg.use_weights else None  # the weights act only via c
    aux, forward = None, probe is None
    for step in range(steps):
        keep_tangent = forward and c is not None and step == steps - 1
        # acc = a_0 e. Handed over, it is e's storage: e as is where a_0 = 1, else scaled in place
        # once the first hop product has read e. Otherwise a Taylor step allocates it after the
        # first power's hop products, which keeps Euler's reverse-pass peak low; LightGCN's comes
        # first, which measured lower in RSS
        x, acc = e, e if overwrite and weight == 1 else None if taylor or overwrite else weight * e
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports divergence
            for j in range(1, top + 1):
                y = x
                for _ in range(hops):
                    y = spmm(state.adjacency, y)
                if probe is not None:  # the first hop product, A^K e
                    aux, probe = float(np.einsum("ij,ij->", y, probe)), None  # einsum: thread-free bits
                if taylor:  # y = M x / j
                    if c is not None:
                        y *= c
                    y -= x
                    y *= h / j
                x = y
                if keep_tangent and j == top:
                    aux = e if acc is None else acc.copy()
                if acc is None:
                    acc = np.multiply(e, weight, out=e if overwrite else None)
                acc += x if taylor else weight * x
        e, overwrite = acc, True  # frees the step's input; later steps sum in this output
        if not np.isfinite(e).all():
            raise SolverError("divergent propagation: non-finite embeddings")
    return e, aux


def model_forward(state):
    """Final embeddings and the reverse pass's context: (fe, ctx).

    ctx is the one N x d tangent of the last solver step when hop weights
    train, and None otherwise.
    """
    return _integrate(state, state.e0)


def model_backward(state, ctx, d_fe, overwrite=False):
    """Exact reverse pass: (d_e0, d_hop_weights or None) for the cotangent d_fe.

    d_e0 = p(A) d_fe, the forward map applied to the cotangent, computed in
    d_fe's storage when ``overwrite`` hands it over. The hop
    weights get dL/dc = h * steps * <A^K d_fe, ctx> and
    dL/dw_k = (prod_{j != k} w_j) dL/dc.
    """
    cfg = state.solver
    if cfg.use_weights and ctx is None:
        raise ModelError("the hop-weight gradient needs the ctx returned by model_forward")
    d_e0, dot = _integrate(state, d_fe, ctx, overwrite)
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
    if not (np.isfinite(std) and std > 0):
        raise ModelError(f"init std must be positive and finite, got {std}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, std, size=(n_rows, dims))

