"""ODE-integrated graph collaborative filtering.

User/item embeddings evolve under a linear graph ODE whose derivative is a
short stack of normalized-adjacency propagations; explicit Euler or RK4
integrates them to the final state. That map is a symmetric polynomial in the
adjacency, so BPR trains the initial embeddings with its exact reverse pass,
the same map applied to the cotangent. Leave-one-out Recall@N / NDCG@N
measure ranking quality.
"""

__version__ = "0.1.0"
