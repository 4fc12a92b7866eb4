"""All-ranking evaluation protocol (paper Section V-A, "Evaluation Metrics")."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.interactions import InteractionDataset
from .metrics import batch_metrics
from .topk import topk_indices

__all__ = ["EvaluationResult", "RankingEvaluator", "evaluate_scores"]


@dataclass
class EvaluationResult:
    """Mean metrics over all evaluated users plus the per-user raw values."""

    metrics: dict[str, float]
    per_user: dict[str, np.ndarray] = field(default_factory=dict)
    num_users: int = 0

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]

    def as_row(self, prefix: str = "") -> dict[str, float]:
        return {f"{prefix}{key}": value for key, value in self.metrics.items()}


def evaluate_scores(
    scores: np.ndarray,
    dataset: InteractionDataset,
    split: str = "test",
    ks: tuple[int, ...] = (5, 10, 20),
    mask_train: bool = True,
) -> EvaluationResult:
    """Evaluate a dense score matrix under the all-ranking protocol.

    Training items of each user are masked to ``-inf`` so they can never be
    recommended, matching the standard protocol of the compared methods.
    NaN or ``+inf`` scores raise ``ValueError``.
    """
    if scores.shape != (dataset.num_users, dataset.num_items):
        raise ValueError(
            f"score matrix shape {scores.shape} does not match dataset "
            f"({dataset.num_users}, {dataset.num_items})"
        )
    pairs = getattr(dataset, split)
    if not len(pairs):
        raise ValueError(f"split '{split}' has no interactions to evaluate")
    # NaN sorts last and +inf first, so either would hand a diverged model a
    # plausible top-K list.  -inf is legal: it is the mask value.
    if not scores.max() < np.inf:
        nan, posinf = int(np.isnan(scores).sum()), int(np.isposinf(scores).sum())
        raise ValueError(f"score matrix has {nan} NaN and {posinf} +inf entries")

    users, rows = np.unique(pairs[:, 0], return_inverse=True)
    user_scores = scores[users]  # advanced indexing already yields a fresh array
    if mask_train:
        row_of_user = np.full(dataset.num_users, -1, dtype=np.int64)
        row_of_user[users] = np.arange(len(users))
        train_rows = row_of_user[dataset.train[:, 0]]
        evaluated = train_rows >= 0
        user_scores[train_rows[evaluated], dataset.train[evaluated, 1]] = -np.inf
    top_lists = topk_indices(user_scores, max(ks))
    scored = batch_metrics(top_lists, rows, pairs[:, 1], ks)
    per_user = {f"{name}@{k}": scored[f"{name}@{k}"] for name in ("recall", "ndcg") for k in ks}
    metrics = {key: float(np.mean(values)) for key, values in per_user.items()}
    return EvaluationResult(metrics=metrics, per_user=per_user, num_users=len(users))


class RankingEvaluator:
    """Convenience wrapper binding a dataset and cut-off list."""

    def __init__(self, dataset: InteractionDataset, ks: tuple[int, ...] = (5, 10, 20)) -> None:
        if not ks:
            raise ValueError("at least one cut-off K is required")
        self.dataset = dataset
        self.ks = tuple(sorted(set(int(k) for k in ks)))

    def evaluate(self, model, split: str = "test") -> EvaluationResult:
        """Evaluate any object exposing ``score_all()``."""
        scores = model.score_all()
        return evaluate_scores(scores, self.dataset, split=split, ks=self.ks)
