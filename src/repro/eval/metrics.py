"""Ranking metrics: Recall@K, NDCG@K and friends.

All metrics follow the all-ranking protocol of the paper: for every test user
the model ranks *every* item the user has not interacted with in training, and
the top-K list is compared against the held-out positives.

One batched kernel, :func:`batch_metrics`, scores many ranked lists at once:
the relevant ``(row, item)`` pairs become one sorted, deduplicated
``row * span + item`` key array, one ``np.isin`` of the lists' keys gives a
``(rows, width)`` hit matrix, and each metric at cut-off ``k`` reduces each row
over its first ``k`` columns (NDCG's ideal DCG comes from a table indexed by
``min(|relevant|, k)``).  Rows are summed in the order a per-user ``np.sum``
uses, so results are bit-identical to scoring users one by one.  The scalar
functions are one-row calls of the same kernel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "batch_metrics",
    "mean_recall",
    "recall_at_k",
    "precision_at_k",
    "ndcg_at_k",
    "hit_rate_at_k",
    "mrr_at_k",
    "rank_metrics",
]


@lru_cache(maxsize=None)
def _ideal_dcg(max_k: int) -> np.ndarray:
    """Ideal DCG of ``m`` hits for ``m = 0 .. max_k`` (a read-only table)."""
    table = np.array([np.sum(1.0 / np.log2(np.arange(2, m + 2))) for m in range(max_k + 1)])
    table.flags.writeable = False
    return table


def batch_metrics(
    top: np.ndarray, rows: np.ndarray, items: np.ndarray, ks: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Per-row metrics of ranked lists against relevant ``(row, item)`` pairs.

    ``top[r]`` is row ``r``'s ranked list of item ids; relevant item
    ``items[i]`` belongs to row ``rows[i]``.  Item ids are non-negative;
    negative entries of ``top`` (the serving layer's ``PAD_INDEX``) never
    count as hits.  Returns one float64 array per ``f"{name}@{k}"`` for
    ``k`` in ``ks`` and name in recall, ndcg, precision, hit, mrr.  A row
    without relevant items scores 0.0.
    """
    if min(ks) <= 0:
        raise ValueError("k must be positive")
    top = np.asarray(top, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    span = int(max(top.max(initial=0), items.max(initial=0))) + 1
    keys = np.unique(np.asarray(rows, dtype=np.int64) * span + items)
    num_relevant = np.bincount(keys // span, minlength=len(top))
    hits = np.isin(np.arange(len(top))[:, None] * span + top, keys) & (top >= 0)
    gains = hits.astype(np.float64)
    positions = np.arange(1, hits.shape[1] + 1)
    discounts, reciprocal_ranks = 1.0 / np.log2(positions + 1), 1.0 / positions
    ideal = _ideal_dcg(max(ks))
    result: dict[str, np.ndarray] = {}
    for k in ks:
        found = hits[:, :k].sum(axis=1)
        dcg = np.sum(gains[:, :k] * discounts[:k], axis=1)
        idcg = ideal[np.minimum(num_relevant, k)]
        recall, ndcg = np.zeros(len(top)), np.zeros(len(top))
        result[f"recall@{k}"] = np.divide(found, num_relevant, out=recall, where=num_relevant > 0)
        result[f"ndcg@{k}"] = np.divide(dcg, idcg, out=ndcg, where=idcg > 0)
        result[f"precision@{k}"] = found / k
        result[f"hit@{k}"] = (found > 0).astype(np.float64)
        result[f"mrr@{k}"] = np.max(gains[:, :k] * reciprocal_ranks[:k], axis=1, initial=0.0)
    return result


def mean_recall(top: np.ndarray, relevant: list[np.ndarray], k: int) -> float:
    """Mean recall@k of ranked rows ``top`` against ``relevant[row]`` (one or more rows)."""
    rows = np.repeat(np.arange(len(relevant)), [len(items) for items in relevant])
    return float(np.mean(batch_metrics(top, rows, np.concatenate(relevant), (k,))[f"recall@{k}"]))


def rank_metrics(recommended: np.ndarray, relevant: np.ndarray, ks: tuple[int, ...]) -> dict[str, float]:
    """All supported metrics for one user at several cut-offs."""
    top = np.asarray(recommended)[None, : max(ks)]
    per_row = batch_metrics(top, np.zeros(np.size(relevant), dtype=np.int64), relevant, tuple(ks))
    return {key: float(values[0]) for key, values in per_row.items()}


def recall_at_k(recommended: np.ndarray, relevant: np.ndarray, k: int) -> float:
    """Fraction of the relevant items that appear in the top-K list."""
    return rank_metrics(recommended, relevant, (k,))[f"recall@{k}"]


def precision_at_k(recommended: np.ndarray, relevant: np.ndarray, k: int) -> float:
    """Fraction of the top-K list that is relevant."""
    return rank_metrics(recommended, relevant, (k,))[f"precision@{k}"]


def hit_rate_at_k(recommended: np.ndarray, relevant: np.ndarray, k: int) -> float:
    """1.0 if at least one relevant item is in the top-K list."""
    return rank_metrics(recommended, relevant, (k,))[f"hit@{k}"]


def mrr_at_k(recommended: np.ndarray, relevant: np.ndarray, k: int) -> float:
    """Reciprocal rank of the first relevant item within the top-K list."""
    return rank_metrics(recommended, relevant, (k,))[f"mrr@{k}"]


def ndcg_at_k(recommended: np.ndarray, relevant: np.ndarray, k: int) -> float:
    """Normalised discounted cumulative gain with binary relevance."""
    return rank_metrics(recommended, relevant, (k,))[f"ndcg@{k}"]
