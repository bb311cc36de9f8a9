"""ODE-integrated graph collaborative filtering.

User/item embeddings evolve under a linear graph ODE whose derivative is a
short stack of normalized-adjacency propagations; explicit Euler or RK4
integrates them to the final state. That map is a symmetric polynomial in the
adjacency, so BPR trains the initial embeddings with its exact reverse pass,
the same map applied to the cotangent. Leave-one-out Recall@N / NDCG@N
measure ranking quality.
"""

__version__ = "0.1.0"

from .data import (
    DataError,
    InteractionLog,
    ParseStats,
    SplitDataset,
    k_core_filter,
    leave_one_out_split,
    parse_interactions,
    synthetic_split,
    write_split,
)
from .evaluation import (
    EvalError,
    MetricsReport,
    RankResult,
    evaluate,
    ndcg_at_n,
    rank_heldout,
    recall_at_n,
)
from .graph import GraphError, SparseAdjacency, build_adjacency, spmm
from .model import (
    ModelError,
    ModelState,
    SolverConfig,
    SolverError,
    final_embeddings,
    init_embeddings,
)
from .train import (
    GradientSet,
    OptimizerState,
    TrainConfig,
    TrainError,
    TripletBatch,
    adam_step,
    backward,
    bpr_loss,
    epoch_triplets,
    finite_difference_check,
    fit,
    sample_triplets,
)
