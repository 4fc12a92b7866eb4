"""Mini-batch samplers: BPR triplets and the N̂ instance sub-sampler.

The DaRec loss terms with quadratic cost (global structure, uniformity) are
computed on a random subset of N̂ user/item instances per step (paper Section
III-D and Fig. 7); :func:`sample_instances` implements that sub-sampling.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .interactions import InteractionDataset

__all__ = ["BprBatch", "BprSampler", "sample_instances", "UniformPairSampler"]


class BprBatch:
    """A batch of (user, positive item, negative item) index arrays."""

    __slots__ = ("users", "pos_items", "neg_items")

    def __init__(self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray) -> None:
        self.users = users
        self.pos_items = pos_items
        self.neg_items = neg_items

    def __len__(self) -> int:
        return len(self.users)


class BprSampler:
    """Uniform BPR triplet sampler with rejection-based negative sampling."""

    def __init__(
        self,
        dataset: InteractionDataset,
        batch_size: int = 256,
        seed: int = 0,
        max_rejections: int = 50,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.max_rejections = max_rejections
        self._rng = np.random.default_rng(seed)
        self._train_pairs = dataset.train
        if len(self._train_pairs) == 0:
            raise ValueError("cannot sample from an empty training split")
        # Sorted ``user * num_items + item`` keys: a candidate collides when its key is here.
        self._positive_keys = np.unique(self._train_pairs[:, 0] * dataset.num_items + self._train_pairs[:, 1])

    def __len__(self) -> int:
        return int(np.ceil(len(self._train_pairs) / self.batch_size))

    def sample_negatives(self, users: np.ndarray) -> np.ndarray:
        """Draw one negative item per user, avoiding observed positives.

        Only redrawn positions are re-checked (the others keep a non-positive
        item), so the draws are those of re-checking every position.
        """
        num_items = self.dataset.num_items
        keys = self._positive_keys
        negatives = self._rng.integers(0, num_items, size=len(users))
        pending = np.arange(len(users))
        for _ in range(self.max_rejections):
            candidates = users[pending].astype(np.int64) * num_items + negatives[pending]
            found = keys.searchsorted(candidates)
            pending = pending[keys[np.minimum(found, len(keys) - 1)] == candidates]
            if not pending.size:
                break
            negatives[pending] = self._rng.integers(0, num_items, size=pending.size)
        return negatives

    def epoch(self) -> Iterator[BprBatch]:
        """Yield shuffled BPR batches covering every training interaction once."""
        order = self._rng.permutation(len(self._train_pairs))
        pairs = self._train_pairs[order]
        for start in range(0, len(pairs), self.batch_size):
            chunk = pairs[start : start + self.batch_size]
            users = chunk[:, 0]
            pos_items = chunk[:, 1]
            neg_items = self.sample_negatives(users)
            yield BprBatch(users, pos_items, neg_items)


class UniformPairSampler:
    """Sample random (user, item) id pairs; used by the KAR adapter pre-training."""

    def __init__(self, dataset: InteractionDataset, seed: int = 0) -> None:
        self.dataset = dataset
        self._rng = np.random.default_rng(seed)

    def sample(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        users = self._rng.integers(0, self.dataset.num_users, size=size)
        items = self._rng.integers(0, self.dataset.num_items, size=size)
        return users, items


def sample_instances(total: int, sample_size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``min(sample_size, total)`` distinct instance indices.

    This is the N̂ sub-sampling of the paper used to keep the O(N̂²d) structure
    losses tractable; when the population is smaller than the requested sample
    the full index range is returned (deterministically, in order).
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    if sample_size >= total:
        return np.arange(total)
    return rng.choice(total, size=sample_size, replace=False)
