"""BPR sampler and N̂ instance sub-sampling."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import BprSampler, InteractionDataset, UniformPairSampler, sample_instances


class TestBprSampler:
    def test_epoch_covers_all_interactions(self, tiny_dataset):
        sampler = BprSampler(tiny_dataset, batch_size=128, seed=0)
        total = sum(len(batch) for batch in sampler.epoch())
        assert total == len(tiny_dataset.train)

    def test_batch_arrays_aligned(self, tiny_dataset):
        sampler = BprSampler(tiny_dataset, batch_size=64, seed=0)
        batch = next(iter(sampler.epoch()))
        assert len(batch.users) == len(batch.pos_items) == len(batch.neg_items)

    def test_positive_items_are_true_positives(self, tiny_dataset):
        sampler = BprSampler(tiny_dataset, batch_size=256, seed=1)
        positives = tiny_dataset.train_positives
        for batch in sampler.epoch():
            for user, item in zip(batch.users, batch.pos_items):
                assert item in positives[int(user)]
            break

    def test_negative_items_avoid_positives(self, tiny_dataset):
        sampler = BprSampler(tiny_dataset, batch_size=256, seed=2)
        positives = tiny_dataset.train_positives
        collisions = 0
        for batch in sampler.epoch():
            for user, item in zip(batch.users, batch.neg_items):
                if item in positives[int(user)]:
                    collisions += 1
        assert collisions == 0

    def test_len_matches_number_of_batches(self, tiny_dataset):
        sampler = BprSampler(tiny_dataset, batch_size=100, seed=0)
        assert len(sampler) == len(list(sampler.epoch()))

    def test_invalid_batch_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            BprSampler(tiny_dataset, batch_size=0)

    def test_shuffling_differs_between_epochs(self, tiny_dataset):
        sampler = BprSampler(tiny_dataset, batch_size=len(tiny_dataset.train), seed=3)
        first = next(iter(sampler.epoch())).users.copy()
        second = next(iter(sampler.epoch())).users.copy()
        assert not np.array_equal(first, second)


class ReferenceSampler(BprSampler):
    """The rejection loop as it was: every position re-checked each round, via a CSR matrix."""

    def __init__(self, dataset, **kwargs):
        super().__init__(dataset, **kwargs)
        pairs = dataset.train
        self._positive_matrix = sp.csr_matrix(
            (np.ones(len(pairs), dtype=bool), (pairs[:, 0], pairs[:, 1])),
            shape=(dataset.num_users, dataset.num_items),
        )

    def sample_negatives(self, users):
        num_items = self.dataset.num_items
        negatives = self._rng.integers(0, num_items, size=len(users))
        for attempt in range(self.max_rejections):
            collisions = np.asarray(self._positive_matrix[users, negatives]).ravel()
            if not collisions.any():
                break
            negatives[collisions] = self._rng.integers(0, num_items, size=int(collisions.sum()))
        return negatives


def dense_dataset(seed: int) -> InteractionDataset:
    """Users holding most of a small catalogue: many collisions, some users with no negative."""
    rng = np.random.default_rng(seed)
    num_users, num_items = 12, 9
    pairs = [(u, i) for u in range(num_users) for i in range(num_items) if rng.random() < 0.3 + 0.7 * (u % 3 == 0)]
    pairs += [(u, i) for u in (1, 2) for i in range(num_items)]  # every item positive
    train = np.unique(np.array(pairs, dtype=np.int64), axis=0)
    return InteractionDataset("dense", num_users, num_items, train, np.empty((0, 2)), np.empty((0, 2)))


class TestRejectionReference:
    """Re-checking only redrawn positions draws exactly what re-checking all of them did."""

    def assert_same_epochs(self, dataset, epochs=3, **kwargs):
        ours, theirs = BprSampler(dataset, **kwargs), ReferenceSampler(dataset, **kwargs)
        for _ in range(epochs):
            for a, b in zip(ours.epoch(), theirs.epoch(), strict=True):
                np.testing.assert_array_equal(a.users, b.users)
                np.testing.assert_array_equal(a.pos_items, b.pos_items)
                np.testing.assert_array_equal(a.neg_items, b.neg_items)
        assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(6))
    def test_tiny_dataset_matches(self, tiny_dataset, seed):
        self.assert_same_epochs(tiny_dataset, batch_size=64, seed=seed)

    @pytest.mark.parametrize("max_rejections", [0, 1, 2, 5, 50])
    @pytest.mark.parametrize("seed", range(4))
    def test_dense_dataset_matches_through_exhaustion(self, seed, max_rejections):
        self.assert_same_epochs(dense_dataset(seed), batch_size=16, seed=seed, max_rejections=max_rejections)

    def test_exhaustion_is_exercised(self):
        # Users 1 and 2 own every item: their negatives stay positives after the last round.
        dataset = dense_dataset(0)
        users = np.array([1, 2, 1, 0])
        negatives = BprSampler(dataset, seed=0, max_rejections=3).sample_negatives(users)
        positives = dataset.train_positives
        assert all(item in positives[u] for u, item in zip(users[:3], negatives[:3]))


class TestUniformPairSampler:
    def test_ranges(self, tiny_dataset):
        sampler = UniformPairSampler(tiny_dataset, seed=0)
        users, items = sampler.sample(500)
        assert users.min() >= 0 and users.max() < tiny_dataset.num_users
        assert items.min() >= 0 and items.max() < tiny_dataset.num_items
        assert len(users) == len(items) == 500


class TestSampleInstances:
    def test_returns_all_when_sample_exceeds_population(self, rng):
        np.testing.assert_array_equal(sample_instances(10, 50, rng), np.arange(10))

    def test_subsample_size_and_uniqueness(self, rng):
        sample = sample_instances(100, 30, rng)
        assert len(sample) == 30
        assert len(np.unique(sample)) == 30
        assert sample.max() < 100

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            sample_instances(0, 10, rng)
        with pytest.raises(ValueError):
            sample_instances(10, 0, rng)
