"""BPR training with exact reverse-mode gradients through the fixed-grid solvers.

The backward pass is discretize-then-optimize. The solver map is a symmetric
polynomial p(A) in the adjacency, so the gradient wrt e0 is p(A) applied to
the cotangent of the final embeddings, and the hop weights need one scalar
more; gradients agree with central finite differences to numerical precision.
The batch loss's gradient wrt the final embeddings is one sparse N x N
product with them, and its L2 term's is e0 scaled row-wise by use counts.
Negatives are sampled in bulk by rejection against the dataset's sorted train
keys ``user * n_items + item``, searched by bisection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import SplitDataset, train_pairs
from .evaluation import EvalError
from .model import SolverError, model_backward, model_forward


class TrainError(ValueError):
    """Raised for ill-posed sampling or training requests."""


_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
_ADAM_SLICE = 1 << 15  # most elements Adam updates at a time: two scratch blocks of 256 KiB
_FD_STEP = 1e-6  # central-difference step of the gradient check


@dataclass(eq=False)
class TripletBatch:
    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def slice(self, lo: int, hi: int) -> "TripletBatch":
        return TripletBatch(self.users[lo:hi], self.pos_items[lo:hi], self.neg_items[lo:hi])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    l2_lambda: float = 1e-4
    batch_size: int = 2048
    max_epochs: int = 1000
    patience: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if not (np.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise TrainError(f"l2 coefficient must be >= 0 and finite, got {self.l2_lambda}")
        if self.batch_size < 1:
            raise TrainError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise TrainError(f"max epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 1:
            raise TrainError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise TrainError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class OptimizerState:
    """Adam moments congruent to the trainable parameter arrays."""

    first_moment: list
    second_moment: list
    step_count: int = 0

    @classmethod
    def for_params(cls, params) -> "OptimizerState":
        return cls(
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )


@dataclass(eq=False)
class GradientSet:
    grad_e0: np.ndarray
    grad_hop_weights: np.ndarray | None

    def as_list(self) -> list[np.ndarray]:
        """The gradients in the order of the trainable parameters."""
        return [self.grad_e0] + ([] if self.grad_hop_weights is None else [self.grad_hop_weights])


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    recall20: float
    ndcg20: float
    seconds: float


def _triplets(ds: SplitDataset, rng, pick) -> TripletBatch:
    """Train pairs at the positions ``pick(n_pairs)``, each with a uniform
    negative: all negatives are drawn at once, then the rows that hit a train
    positive of their user are redrawn until none does."""
    users_all, items_all = train_pairs(ds)
    if users_all.size == 0:
        raise TrainError("dataset has no train interactions")
    keys = ds.train_keys
    full = np.bincount(keys // ds.n_items, minlength=ds.n_users) >= ds.n_items
    if full.any():
        raise TrainError(f"user {int(np.argmax(full))} interacted with every item; "
                         "no negative exists")
    idx = pick(users_all.size)
    users = users_all[idx]
    neg = rng.integers(ds.n_items, size=users.size)
    redo = np.arange(users.size)
    while True:  # keep the rows whose negative is a train key, and redraw them
        query = users[redo] * ds.n_items + neg[redo]
        by = np.argsort(query)
        at = np.empty_like(by)
        at[by] = np.searchsorted(keys, query[by])  # sorted queries walk the keys in order
        redo = redo[keys.take(at, mode="clip") == query]
        if not redo.size:
            return TripletBatch(users, items_all[idx], neg)
        neg[redo] = rng.integers(ds.n_items, size=redo.size)


def sample_triplets(ds: SplitDataset, count: int, rng) -> TripletBatch:
    """Uniform (user, positive) draws from the train pairs, each with a
    rejection-sampled negative that is not a train positive of that user."""
    return _triplets(ds, rng, lambda n: rng.integers(n, size=count))


def epoch_triplets(ds: SplitDataset, rng) -> TripletBatch:
    """One shuffled triplet per train interaction, covering each exactly once."""
    return _triplets(ds, rng, rng.permutation)


def bpr_loss(pos_scores, neg_scores, params_l2: float, l2_lambda: float) -> float:
    """-mean(log sigmoid(pos - neg)) + l2_lambda * params_l2, evaluated stably."""
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.shape != neg_scores.shape:
        raise TrainError(f"score shapes differ: {pos_scores.shape} vs {neg_scores.shape}")
    margin = pos_scores - neg_scores
    return float(np.mean(np.logaddexp(0.0, -margin)) + l2_lambda * params_l2)


def _score_head(batch: TripletBatch, state, fe, l2_lambda: float):
    """Regularized BPR loss of ``batch`` on the final embeddings ``fe``.

    Returns ``(loss, coef, counts)``: ``coef[j]`` is the loss's derivative wrt
    triplet j's margin, and ``counts`` how often the batch uses each node row
    (users, then ``n_users + item``), repeats counted as the L2 term counts them.
    """
    n_users, size = state.adjacency.n_users, len(batch)
    fu = fe.take(batch.users, axis=0)
    pos = np.einsum("ij,ij->i", fu, fe.take(n_users + batch.pos_items, axis=0))
    neg = np.einsum("ij,ij->i", fu, fe.take(n_users + batch.neg_items, axis=0))
    rows = np.concatenate([batch.users, n_users + batch.pos_items, n_users + batch.neg_items])
    counts = np.bincount(rows, minlength=fe.shape[0])
    l2 = float(np.einsum("i,i->", counts, np.einsum("ij,ij->i", state.e0, state.e0)))
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing scores raise as divergence
        loss = bpr_loss(pos, neg, l2 / size, l2_lambda)
        if not np.isfinite(loss):
            raise SolverError(f"divergent training: non-finite batch loss {loss}")
        return loss, -1.0 / (1.0 + np.exp(pos - neg)) / size, counts  # -0.0 where exp overflows


def batch_loss(state, batch: TripletBatch, l2_lambda: float) -> float:
    """Forward-only loss; used by finite-difference checks."""
    fe, _ = model_forward(state)
    return _score_head(batch, state, fe, l2_lambda)[0]


def backward(batch: TripletBatch, state, l2_lambda: float):
    """Regularized batch loss and its exact gradient wrt e0 (and hop weights).

    Runs ``model_forward`` itself, so the final embeddings ``fe`` can go
    before the reverse pass. With ``C`` holding ``+coef[j]`` at (user j,
    positive j) and ``-coef[j]`` at (user j, negative j), the score loss's
    gradient wrt ``fe`` is ``(C + C^T) @ fe``, which ``model_backward``
    carries back to e0; the L2 term's gradient is ``e0`` scaled row-wise by
    the use counts. Returns ``(loss, GradientSet)``.
    """
    fe, ctx = model_forward(state)
    loss, coef, counts = _score_head(batch, state, fe, l2_lambda)
    n_users, n = state.adjacency.n_users, fe.shape[0]
    u, p, q = batch.users, n_users + batch.pos_items, n_users + batch.neg_items
    sym = sp.csr_matrix((np.concatenate([coef, -coef, coef, -coef]),  # C + C^T
                         (np.concatenate([u, u, p, q]), np.concatenate([p, q, u, u]))),
                        shape=(n, n))  # repeated entries are summed
    fe = sym @ fe  # the cotangent; the final embeddings go before the reverse pass
    d_e0, d_w = model_backward(state, ctx, fe, overwrite=True)  # nothing reads S @ fe again
    if l2_lambda:
        d_e0 += ((2.0 * l2_lambda / len(batch)) * counts)[:, None] * state.e0
    return loss, GradientSet(grad_e0=d_e0, grad_hop_weights=d_w)


def loss_and_grads(state, batch: TripletBatch, l2_lambda: float):
    return backward(batch, state, l2_lambda)


def adam_step(params, grads, opt: OptimizerState, lr: float) -> None:
    """In-place bias-corrected Adam over parallel lists of parameter arrays: the whole-array
    ufuncs in order, over blocks of whole rows of at most ``_ADAM_SLICE`` elements (views in
    any memory layout) at a time; ``grads`` are only read."""
    if len(params) != len(grads) or len(params) != len(opt.first_moment):
        raise TrainError("parameter/gradient/moment lists are not congruent")
    opt.step_count += 1
    c1 = 1.0 - _BETA1 ** opt.step_count
    c2 = 1.0 - _BETA2 ** opt.step_count
    for p, g, m, v in zip(params, grads, opt.first_moment, opt.second_moment):
        rows = max(1, _ADAM_SLICE // max(1, p[:1].size))
        a, b = np.empty((2, *p[:rows].shape))  # the two scratch blocks
        for lo in range(0, len(p), rows):
            ps, gs, ms, vs = (x[lo:lo + rows] for x in (p, g, m, v))
            sa, sb = a[:len(ps)], b[:len(ps)]
            ms *= _BETA1
            ms += np.multiply(1.0 - _BETA1, gs, out=sa)
            vs *= _BETA2
            vs += np.multiply(1.0 - _BETA2, np.multiply(gs, gs, out=sa), out=sa)
            np.add(np.sqrt(np.divide(vs, c2, out=sa), out=sa), _EPSILON, out=sa)
            ps -= np.divide(np.multiply(lr, np.divide(ms, c1, out=sb), out=sb), sa, out=sb)


def _trainables(state):
    params = [state.e0]
    if state.hop_weights is not None:
        params.append(state.hop_weights)
    return params


def fit(ds: SplitDataset, state, cfg: TrainConfig, eval_hook):
    """Train e0 (and hop weights) with per-epoch validation early stopping.

    Each epoch touches every train interaction once as a positive. The hook is
    called with the current state after every epoch and must return a report
    exposing ``recall_at(20)`` / ``ndcg_at(20)``; the state with the best
    validation NDCG@20 is returned (a copy, the input state trains in place).
    Training stops at the first ``SolverError`` (a step's propagation or batch
    loss is non-finite) or ``EvalError`` (the hook cannot rank the state) and
    returns the best state so far.
    Beyond the state, only the best copy and Adam's two moments outlive a step:
    each gradient goes once Adam has read it, and the epoch's triplets before the hook.
    """
    rng = np.random.default_rng(cfg.seed)
    params = _trainables(state)
    opt = OptimizerState.for_params(params)

    history: list[EpochRecord] = []
    best_state = state.copy()
    best_metric = -np.inf
    since_best = 0
    try:
        for epoch in range(1, cfg.max_epochs + 1):
            started = time.perf_counter()
            triplets = epoch_triplets(ds, rng)
            total = 0.0
            for lo in range(0, len(triplets), cfg.batch_size):
                batch = triplets.slice(lo, lo + cfg.batch_size)
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, grads = loss_and_grads(state, batch, cfg.l2_lambda)
                adam_step(params, grads.as_list(), opt, cfg.learning_rate)
                del grads  # one N x d table, not to sit beside the next step's passes
                total += loss * len(batch)
            mean_loss = total / len(triplets)  # every train pair once
            del triplets, batch  # the slice is a view that keeps the epoch's arrays

            report = eval_hook(state)
            record = EpochRecord(
                epoch=epoch,
                loss=mean_loss,
                recall20=report.recall_at(20),
                ndcg20=report.ndcg_at(20),
                seconds=time.perf_counter() - started,
            )
            history.append(record)
            if record.ndcg20 > best_metric:
                best_metric = record.ndcg20
                best_state = state.copy()
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
    except (SolverError, EvalError):
        pass  # the state no longer propagates, scores or ranks; keep the best so far
    return history, best_state


def finite_difference_check(state, batch: TripletBatch, l2_lambda: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is |analytic - fd| / max(1, |fd|); the
    maximum over every e0 coordinate (and hop weight, when present) is
    returned.
    """
    _, grads = loss_and_grads(state, batch, l2_lambda)
    worst = 0.0
    for param, grad in zip(_trainables(state), grads.as_list()):
        for idx in np.ndindex(param.shape):
            orig = param[idx]
            param[idx] = orig + _FD_STEP
            up = batch_loss(state, batch, l2_lambda)
            param[idx] = orig - _FD_STEP
            down = batch_loss(state, batch, l2_lambda)
            param[idx] = orig
            fd = (up - down) / (2.0 * _FD_STEP)
            worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))
    return worst
