"""Evaluation: ranking metrics and the all-ranking protocol."""

from .metrics import (
    recall_at_k,
    precision_at_k,
    ndcg_at_k,
    hit_rate_at_k,
    mrr_at_k,
    rank_metrics,
)
from .protocol import EvaluationResult, RankingEvaluator, evaluate_scores
from .topk import topk, topk_indices

__all__ = [
    "recall_at_k",
    "precision_at_k",
    "ndcg_at_k",
    "hit_rate_at_k",
    "mrr_at_k",
    "rank_metrics",
    "EvaluationResult",
    "RankingEvaluator",
    "evaluate_scores",
    "topk",
    "topk_indices",
]
