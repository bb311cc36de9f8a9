"""Workload definitions: the generated input of each workload and the pipeline settings it runs.

Kept free of ``odecf`` imports so the generator can run without the program.
The two training workloads share one data spec, so they differ only in the
model layer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DataSpec:
    """Shape of one generated raw log.

    Core users draw their items from a softmax over latent-factor affinity
    plus heavy-tailed item popularity. On top of them the generator plants
    users with fewer than ``k`` items, items with fewer than ``k`` users,
    duplicate lines and malformed lines, in known numbers.
    """

    users: int
    items: int
    min_per_user: int
    mean_extra: float
    max_per_user: int
    factors: int
    affinity: float
    pop_alpha: float
    sub_k_users: int
    rare_items: int
    duplicate_share: float
    malformed: int
    tie_share: float
    k: int = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: DataSpec
    model: str  # "gode_cf" or "lightgcn"
    method: str = "euler"
    t1: float = 0.9
    steps: int = 1
    n_hops: int = 2
    use_weights: bool = False
    n_layers: int = 2
    dims: int = 32
    init_std: float = 0.1
    learning_rate: float = 0.02
    l2_lambda: float = 1e-4
    batch_size: int = 2048
    epochs: int = 6
    setups_per_round: int = 2  # set-up samples taken before each timed round


TRAIN_DATA = DataSpec(
    users=3000, items=600, min_per_user=5, mean_extra=6.0, max_per_user=60,
    factors=8, affinity=2.5, pop_alpha=0.8,
    sub_k_users=300, rare_items=300, duplicate_share=0.05, malformed=400,
    tie_share=0.1,
)

# Flat popularity and ~20 items a user let most of the 14,000 items keep the
# five users the 5-core asks for; a wider catalog would need more interactions
# a user, and training grows with those (see README.md, "Workloads").
WIDE_DATA = DataSpec(
    users=4000, items=14000, min_per_user=5, mean_extra=18.0, max_per_user=150,
    factors=8, affinity=9.0, pop_alpha=0.3,
    sub_k_users=5000, rare_items=20000, duplicate_share=0.3, malformed=8000,
    tie_share=0.1,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-euler",
            why="paper default GODE-CF (Euler, 1 step, 2 hops): 4 spmm a step, so Adam, "
                "score head and sampling weigh most",
            data=TRAIN_DATA, model="gode_cf", method="euler",
        ),
        Workload(
            name="train-rk4-weighted",
            why="RK4 with trainable hop weights on the same data: 16 spmm a step and 8 taped "
                "hop products, so solver, reverse pass and memory weigh most",
            data=TRAIN_DATA, model="gode_cf", method="rk4", use_weights=True,
        ),
        Workload(
            name="wide-catalog",
            why="sparse, dirty log with 2.6x more items than users, LightGCN, large batch, 2 "
                "epochs: ingest and full-catalog ranking outweigh training",
            data=WIDE_DATA, model="lightgcn", learning_rate=0.1, batch_size=8192, epochs=2,
            setups_per_round=1,
        ),
    )
}
