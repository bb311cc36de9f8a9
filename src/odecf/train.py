"""BPR training with exact reverse-mode gradients through the fixed-grid solvers.

The backward pass is discretize-then-optimize. The solver map is a symmetric
polynomial p(A) in the adjacency, so the gradient wrt e0 is p(A) applied to
the cotangent of the final embeddings, and the hop weights need one scalar
more; gradients agree with central finite differences to numerical precision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .data import SplitDataset, train_pairs
from .model import (
    ModelState,
    SolverError,
    load_embeddings,
    model_backward,
    model_forward,
    save_embeddings,
)


class TrainError(ValueError):
    """Raised for ill-posed sampling or training requests."""


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
        if not self.learning_rate > 0:
            raise TrainError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.l2_lambda < 0:
            raise TrainError(f"l2 coefficient must be >= 0, got {self.l2_lambda}")
        if self.batch_size < 1:
            raise TrainError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise TrainError(f"max epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 1:
            raise TrainError(f"patience must be >= 1, got {self.patience}")


@dataclass(eq=False)
class OptimizerState:
    """Adam moments congruent to the trainable parameter arrays."""

    first_moment: list
    second_moment: list
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

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


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    recall20: float
    ndcg20: float
    seconds: float


def train_item_sets(ds: SplitDataset) -> list[set[int]]:
    return [set(items) for items in ds.train]


def _check_negatives_exist(ds: SplitDataset, train_sets) -> None:
    for u, positives in enumerate(train_sets):
        if len(positives) >= ds.n_items:
            raise TrainError(f"user {u} interacted with every item; no negative exists")


def _draw_negatives(rng, n_items, users, train_sets) -> np.ndarray:
    neg = np.empty(len(users), dtype=np.int64)
    for row, u in enumerate(users):
        positives = train_sets[u]
        j = int(rng.integers(n_items))
        while j in positives:
            j = int(rng.integers(n_items))
        neg[row] = j
    return neg


def sample_triplets(ds: SplitDataset, count: int, rng, train_sets=None) -> TripletBatch:
    """Uniform (user, positive) draws from the train pairs, each with a
    rejection-sampled negative that is not a train positive of that user."""
    users_all, items_all = train_pairs(ds)
    if users_all.size == 0:
        raise TrainError("dataset has no train interactions")
    if train_sets is None:
        train_sets = train_item_sets(ds)
    _check_negatives_exist(ds, train_sets)
    idx = rng.integers(users_all.size, size=count)
    users = users_all[idx]
    pos = items_all[idx]
    neg = _draw_negatives(rng, ds.n_items, users, train_sets)
    return TripletBatch(users, pos, neg)


def epoch_triplets(ds: SplitDataset, rng, train_sets=None) -> TripletBatch:
    """One shuffled triplet per train interaction, covering each exactly once."""
    users_all, items_all = train_pairs(ds)
    if users_all.size == 0:
        raise TrainError("dataset has no train interactions")
    if train_sets is None:
        train_sets = train_item_sets(ds)
    _check_negatives_exist(ds, train_sets)
    perm = rng.permutation(users_all.size)
    users = users_all[perm]
    pos = items_all[perm]
    neg = _draw_negatives(rng, ds.n_items, users, train_sets)
    return TripletBatch(users, pos, neg)


def bpr_loss(pos_scores, neg_scores, params_l2: float, l2_lambda: float) -> float:
    """-mean(log sigmoid(pos - neg)) + l2_lambda * params_l2, evaluated stably."""
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.shape != neg_scores.shape:
        raise TrainError(f"score shapes differ: {pos_scores.shape} vs {neg_scores.shape}")
    margin = pos_scores - neg_scores
    return float(np.mean(np.logaddexp(0.0, -margin)) + l2_lambda * params_l2)


def batch_l2(e0: np.ndarray, n_users: int, batch: TripletBatch) -> float:
    """Mean squared norm of the e0 rows used by the batch, repeats counted."""
    total = 0.0
    for rows in (batch.users, n_users + batch.pos_items, n_users + batch.neg_items):
        total += float(np.sum(e0[rows] ** 2))
    return total / len(batch)


def _batch_scores(fe, n_users, batch):
    u = fe[batch.users]
    pos = np.einsum("ij,ij->i", u, fe[n_users + batch.pos_items])
    neg = np.einsum("ij,ij->i", u, fe[n_users + batch.neg_items])
    return pos, neg


def batch_loss(state, batch: TripletBatch, l2_lambda: float) -> float:
    """Forward-only loss; used by finite-difference checks."""
    fe, _ = model_forward(state)
    n_users = state.adjacency.n_users
    pos, neg = _batch_scores(fe, n_users, batch)
    return bpr_loss(pos, neg, batch_l2(state.e0, n_users, batch), l2_lambda)


def backward(batch: TripletBatch, state, fe, ctx, l2_lambda: float) -> GradientSet:
    """Exact gradient of the regularized batch loss wrt e0 (and hop weights).

    ``fe`` and ``ctx`` are what ``model_forward`` returned. The score head is
    differentiated by hand; ``model_backward`` carries its cotangent back to
    e0. The L2 term adds 2*l2_lambda*row/batch_rows for every appearance of a
    sampled row.
    """
    n_users = state.adjacency.n_users
    u = batch.users
    p = n_users + batch.pos_items
    q = n_users + batch.neg_items

    pos, neg = _batch_scores(fe, n_users, batch)
    coef = -expit(-(pos - neg)) / len(batch)  # d mean-softplus(neg-pos) / d margin

    d_fe = np.zeros_like(fe)
    np.add.at(d_fe, u, coef[:, None] * (fe[p] - fe[q]))
    np.add.at(d_fe, p, coef[:, None] * fe[u])
    np.add.at(d_fe, q, -coef[:, None] * fe[u])

    d_e0, d_w = model_backward(state, ctx, d_fe)
    if l2_lambda:
        rate = 2.0 * l2_lambda / len(batch)
        for rows in (u, p, q):
            np.add.at(d_e0, rows, rate * state.e0[rows])
    return GradientSet(grad_e0=d_e0, grad_hop_weights=d_w)


def loss_and_grads(state, batch: TripletBatch, l2_lambda: float):
    fe, ctx = model_forward(state)
    n_users = state.adjacency.n_users
    pos, neg = _batch_scores(fe, n_users, batch)
    loss = bpr_loss(pos, neg, batch_l2(state.e0, n_users, batch), l2_lambda)
    return loss, backward(batch, state, fe, ctx, l2_lambda)


def adam_step(params, grads, opt: OptimizerState, lr: float) -> None:
    """In-place bias-corrected Adam over parallel lists of parameter arrays."""
    if len(params) != len(grads) or len(params) != len(opt.first_moment):
        raise TrainError("parameter/gradient/moment lists are not congruent")
    opt.step_count += 1
    c1 = 1.0 - opt.beta1 ** opt.step_count
    c2 = 1.0 - opt.beta2 ** opt.step_count
    for p, g, m, v in zip(params, grads, opt.first_moment, opt.second_moment):
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + opt.epsilon)


def _trainables(state):
    params = [state.e0]
    if isinstance(state, ModelState) and state.hop_weights is not None:
        params.append(state.hop_weights)
    return params


def fit(ds: SplitDataset, state, cfg: TrainConfig, eval_hook):
    """Train e0 (and hop weights) with per-epoch validation early stopping.

    Each epoch touches every train interaction once as a positive. The hook is
    called with the current state after every epoch and must return a report
    exposing ``recall_at(20)`` / ``ndcg_at(20)``; the state with the best
    validation NDCG@20 is returned (a copy, the input state trains in place).
    A non-finite loss aborts training and returns the best state so far.
    """
    rng = np.random.default_rng(cfg.seed)
    params = _trainables(state)
    opt = OptimizerState.for_params(params)
    train_sets = train_item_sets(ds)

    history: list[EpochRecord] = []
    best_state = state.copy()
    best_metric = -np.inf
    since_best = 0
    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        triplets = epoch_triplets(ds, rng, train_sets)
        total = 0.0
        seen = 0
        diverged = False
        for lo in range(0, len(triplets), cfg.batch_size):
            batch = triplets.slice(lo, lo + cfg.batch_size)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, grads = loss_and_grads(state, batch, cfg.l2_lambda)
            except SolverError:
                diverged = True
                break
            if not np.isfinite(loss):
                diverged = True
                break
            grad_list = [grads.grad_e0]
            if grads.grad_hop_weights is not None:
                grad_list.append(grads.grad_hop_weights)
            adam_step(params, grad_list, opt, cfg.learning_rate)
            total += loss * len(batch)
            seen += len(batch)
        if diverged:
            break

        try:
            report = eval_hook(state)
        except SolverError:
            break  # post-epoch state no longer integrates; keep last good checkpoint
        record = EpochRecord(
            epoch=epoch,
            loss=total / seen,
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
    return history, best_state


def write_training_log(path, history, log_timing: bool = True) -> None:
    """CSV training curve: epoch,loss,recall20,ndcg20,seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,recall20,ndcg20,seconds\n")
        for r in history:
            seconds = repr(round(float(r.seconds), 3)) if log_timing else "0.0"
            fh.write(f"{r.epoch},{float(r.loss)!r},{float(r.recall20)!r},"
                     f"{float(r.ndcg20)!r},{seconds}\n")


def save_checkpoint(outdir, state, epoch: int, metric: float, config_hash: str) -> list[Path]:
    """Persist the trainable state plus a small metadata file; returns paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / "checkpoint.emb", outdir / "checkpoint_meta.txt"]
    save_embeddings(paths[0], state.e0, binary=True)
    weights = getattr(state, "hop_weights", None)
    weight_path = outdir / "hop_weights.txt"
    if weights is None:
        weight_path.unlink(missing_ok=True)  # load_checkpoint would pick up a stale one
    else:
        with open(weight_path, "w", encoding="utf-8") as fh:
            for w in weights:
                fh.write(f"{float(w)!r}\n")
        paths.append(weight_path)
    with open(paths[1], "w", encoding="utf-8") as fh:
        fh.write(f"epoch={epoch}\n")
        fh.write(f"metric={metric!r}\n")
        fh.write(f"config_hash={config_hash}\n")
    return paths


def load_checkpoint(indir):
    """Read back (e0, hop_weights or None, metadata dict)."""
    indir = Path(indir)
    e0 = load_embeddings(indir / "checkpoint.emb")
    weights = None
    weight_path = indir / "hop_weights.txt"
    if weight_path.exists():
        with open(weight_path, "r", encoding="utf-8") as fh:
            weights = np.array([float(line) for line in fh if line.strip()])
    meta = {}
    with open(indir / "checkpoint_meta.txt", "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, value = line.rstrip("\n").split("=", 1)
                meta[key] = value
    return e0, weights, meta


def finite_difference_check(state, batch: TripletBatch, l2_lambda: float,
                            fd_step: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is |analytic - fd| / max(1, |fd|); the
    maximum over every e0 coordinate (and hop weight, when present) is
    returned.
    """
    _, grads = loss_and_grads(state, batch, l2_lambda)
    worst = 0.0

    e0 = state.e0
    for idx in np.ndindex(e0.shape):
        orig = e0[idx]
        e0[idx] = orig + fd_step
        up = batch_loss(state, batch, l2_lambda)
        e0[idx] = orig - fd_step
        down = batch_loss(state, batch, l2_lambda)
        e0[idx] = orig
        fd = (up - down) / (2.0 * fd_step)
        worst = max(worst, abs(grads.grad_e0[idx] - fd) / max(1.0, abs(fd)))

    weights = getattr(state, "hop_weights", None)
    if weights is not None:
        for k in range(len(weights)):
            orig = weights[k]
            weights[k] = orig + fd_step
            up = batch_loss(state, batch, l2_lambda)
            weights[k] = orig - fd_step
            down = batch_loss(state, batch, l2_lambda)
            weights[k] = orig
            fd = (up - down) / (2.0 * fd_step)
            worst = max(worst, abs(grads.grad_hop_weights[k] - fd) / max(1.0, abs(fd)))
    return worst
