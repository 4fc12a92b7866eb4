"""Shared top-K and ranking-metric kernels: bit-identity with the per-user path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.base import AlignedRecommender
from repro.data import InteractionDataset
from repro.eval import evaluate_scores, rank_metrics, topk, topk_indices
from repro.eval.protocol import RankingEvaluator
from repro.experiments import ExperimentScale, build_dataset_and_semantics, build_variant, make_backbone
from repro.train import Trainer, TrainingConfig


def legacy_topk(user_scores: np.ndarray, k: int) -> np.ndarray:
    """The selection the evaluator used before the shared kernel landed."""
    selected = np.argpartition(-user_scores, min(k, len(user_scores) - 1))[:k]
    return selected[np.argsort(-user_scores[selected])]


def legacy_rank_metrics(recommended, relevant, k: int) -> dict[str, float]:
    """The per-user scalar metric formulas from before the batched kernel."""
    top_k, relevant = np.asarray(recommended)[:k], np.unique(np.asarray(relevant))
    hits = np.isin(top_k, relevant)
    if relevant.size:
        gains = hits.astype(np.float64)
        dcg = float(np.sum(gains * (1.0 / np.log2(np.arange(2, len(gains) + 2)))))
        idcg = float(np.sum(1.0 / np.log2(np.arange(2, min(relevant.size, k) + 2))))
        ndcg = dcg / idcg if idcg > 0 else 0.0
    else:
        ndcg = 0.0
    return {
        "recall": int(hits.sum()) / relevant.size if relevant.size else 0.0,
        "ndcg": ndcg,
        "precision": int(hits.sum()) / k if relevant.size else 0.0,
        "hit": 1.0 if hits.any() else 0.0,
        "mrr": 1.0 / (int(np.argmax(hits)) + 1) if hits.any() else 0.0,
    }


def random_dataset(
    rng, num_users: int, num_items: int, per_user: int, duplicate_test: bool = False
) -> InteractionDataset:
    """A seeded dataset whose last users have no training positives."""

    def pairs(users: int, size: int) -> np.ndarray:
        return np.stack([rng.integers(0, users, size=size), rng.integers(0, num_items, size=size)], axis=1)

    train_users = num_users - 3
    # Heavy users: most of the catalogue is training history, so fewer than
    # max(ks) items stay unmasked and -inf entries reach their top lists.
    heavy = np.array([[user, item] for user in (0, 1) for item in range(max(1, num_items - 3))])
    train = np.concatenate([pairs(train_users, per_user * train_users), heavy])
    test = pairs(num_users, 2 * num_users)
    if duplicate_test:
        test = np.concatenate([test, test[: num_users // 2]])
    return InteractionDataset(
        "battery", num_users, num_items, train=train, valid=pairs(num_users, num_users), test=test
    )


class TestTopkIndices:
    def test_simple_descending(self):
        scores = np.array([0.1, 5.0, -2.0, 3.0])
        np.testing.assert_array_equal(topk_indices(scores, 2), [1, 3])

    def test_2d_rows_independent(self):
        scores = np.array([[1.0, 2.0, 3.0], [9.0, 0.0, 4.0]])
        np.testing.assert_array_equal(topk_indices(scores, 2), [[2, 1], [0, 2]])

    def test_k_clamped_to_width(self):
        scores = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(topk_indices(scores, 10), [0, 2, 1])

    def test_unsorted_selection_same_set(self, rng):
        scores = rng.normal(size=(6, 30))
        sorted_ids = topk_indices(scores, 7, sort=True)
        unsorted_ids = topk_indices(scores, 7, sort=False)
        np.testing.assert_array_equal(np.sort(sorted_ids), np.sort(unsorted_ids))

    def test_matches_legacy_per_row_selection_exactly(self, rng):
        """Batched kernel output is bit-identical to the old per-user loop,
        tied scores included."""
        for _ in range(50):
            rows = int(rng.integers(1, 12))
            width = int(rng.integers(1, 40))
            k = int(rng.integers(1, 50))
            scores = rng.integers(0, 5, size=(rows, width)).astype(float)
            batched = topk_indices(scores, k)
            for row in range(rows):
                np.testing.assert_array_equal(batched[row], legacy_topk(scores[row], k))

    def test_topk_returns_values(self):
        scores = np.array([[1.0, 4.0, 2.0]])
        indices, values = topk(scores, 2)
        np.testing.assert_array_equal(indices, [[1, 2]])
        np.testing.assert_array_equal(values, [[4.0, 2.0]])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            topk_indices(np.ones(4), 0)
        with pytest.raises(ValueError):
            topk_indices(np.ones((2, 2, 2)), 1)
        with pytest.raises(ValueError):
            topk_indices(np.empty(0), 1)


class TestEvaluatorAdoption:
    def legacy_evaluate(self, scores, dataset, ks, split="test", mask_train=True):
        """Reference reimplementation of the pre-kernel evaluator loop."""
        positives = dataset.user_positives(split)
        train_positives = dataset.train_positives
        max_k = max(ks)
        per_user = {f"recall@{k}": [] for k in ks}
        per_user.update({f"ndcg@{k}": [] for k in ks})
        for user, relevant in positives.items():
            user_scores = scores[user].copy()
            seen = train_positives.get(user)
            if mask_train and seen is not None and len(seen):
                user_scores[seen] = -np.inf
            top = legacy_topk(user_scores, max_k)
            for k in ks:
                values = legacy_rank_metrics(top, relevant, k)
                per_user[f"recall@{k}"].append(values["recall"])
                per_user[f"ndcg@{k}"].append(values["ndcg"])
        metrics = {key: float(np.mean(values)) for key, values in per_user.items()}
        return metrics, {key: np.asarray(values) for key, values in per_user.items()}

    def assert_identical(self, scores, dataset, ks, **kwargs):
        result = evaluate_scores(scores, dataset, ks=ks, **kwargs)
        metrics, per_user = self.legacy_evaluate(scores, dataset, ks, **kwargs)
        assert result.metrics == metrics
        assert list(result.per_user) == list(per_user)
        for key, values in per_user.items():
            assert result.per_user[key].dtype == values.dtype
            assert np.array_equal(result.per_user[key], values), key

    def test_identical_to_legacy_loop(self, tiny_dataset, rng):
        scores = rng.normal(size=(tiny_dataset.num_users, tiny_dataset.num_items))
        self.assert_identical(scores, tiny_dataset, (5, 10, 20))

    def test_identical_with_heavy_ties(self, tiny_dataset, rng):
        # Integer scores force ties everywhere — selection order must still
        # match the legacy path bit for bit.
        scores = rng.integers(0, 4, size=(tiny_dataset.num_users, tiny_dataset.num_items)).astype(float)
        self.assert_identical(scores, tiny_dataset, (5, 20))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "num_items, ks", [(60, (5, 10, 20)), (23, (1, 3, 20)), (8, (5, 10, 20)), (40, (7, 9, 33))]
    )
    def test_battery_bit_identical(self, seed, num_items, ks):
        """Duplicate test pairs, users without training positives, heavy users
        whose top list holds -inf items, and catalogues narrower than max(ks)."""
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, num_users=30, num_items=num_items, per_user=4, duplicate_test=True)
        scores = rng.normal(size=(dataset.num_users, dataset.num_items))
        for split in ("test", "valid"):
            for mask_train in (True, False):
                self.assert_identical(scores, dataset, ks, split=split, mask_train=mask_train)

    @pytest.mark.parametrize("seed", range(3))
    def test_battery_float32_and_tied_scores(self, seed):
        rng = np.random.default_rng(100 + seed)
        dataset = random_dataset(rng, num_users=40, num_items=30, per_user=5)
        shape = (dataset.num_users, dataset.num_items)
        self.assert_identical(rng.normal(size=shape).astype(np.float32), dataset, (5, 10, 20))
        tied = rng.integers(0, 3, size=shape).astype(np.float32)
        self.assert_identical(tied, dataset, (5, 10, 20), split="valid")
        self.assert_identical(tied.astype(np.float64), dataset, (5, 10, 20), mask_train=False)

    def test_battery_perfbench_training_shape_after_one_epoch(self):
        scale = ExperimentScale(
            dataset_scale=0.5, embedding_dim=32, llm_dim=32, epochs=1, batch_size=1024,
            darec_sample_size=64, darec_shared_dim=16,
        )
        dataset, semantic = build_dataset_and_semantics("yelp", scale)
        backbone = make_backbone("lightgcn", dataset, scale)
        model = AlignedRecommender(
            backbone, build_variant("darec", backbone, semantic, scale), trade_off=scale.trade_off
        )
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=scale.batch_size, seed=scale.seed))
        trainer.train_epoch()
        model.eval()
        scores = model.score_all()
        for split in ("test", "valid"):
            self.assert_identical(scores, dataset, (5, 10, 20), split=split)

    def test_scalar_metrics_match_legacy_formulas(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            recommended = rng.permutation(40)[: int(rng.integers(0, 25))]
            relevant = rng.integers(0, 40, size=int(rng.integers(0, 8)))  # duplicates too
            ks = tuple(int(k) for k in rng.integers(1, 30, size=3))
            bundle = rank_metrics(recommended, relevant, ks)
            for k in ks:
                for name, value in legacy_rank_metrics(recommended, relevant, k).items():
                    assert bundle[f"{name}@{k}"] == value, (name, k)

    def test_evaluator_still_works_end_to_end(self, tiny_dataset, lightgcn_backbone):
        result = RankingEvaluator(tiny_dataset, ks=(10,)).evaluate(lightgcn_backbone)
        assert 0.0 <= result.metrics["recall@10"] <= 1.0
