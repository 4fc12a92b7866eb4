"""Analysis utilities: t-SNE, information-theoretic estimators, case study."""

from .tsne import TSNEConfig, tsne, pairwise_squared_distances
from .info_theory import (
    discrete_entropy,
    discrete_mutual_information,
    discrete_conditional_entropy,
    quantize_representation,
    representation_mutual_information,
    representation_conditional_entropy,
    information_gap,
)
from .case_study import (
    UserPairRelevance,
    build_user_item_graph,
    find_distant_user_pairs,
    pair_relevance,
    relevance_report,
)

__all__ = [
    "TSNEConfig",
    "tsne",
    "pairwise_squared_distances",
    "discrete_entropy",
    "discrete_mutual_information",
    "discrete_conditional_entropy",
    "quantize_representation",
    "representation_mutual_information",
    "representation_conditional_entropy",
    "information_gap",
    "UserPairRelevance",
    "build_user_item_graph",
    "find_distant_user_pairs",
    "pair_relevance",
    "relevance_report",
]
