"""All-ranking evaluation protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import InteractionDataset
from repro.eval import RankingEvaluator, evaluate_scores


def toy_dataset() -> InteractionDataset:
    train = np.array([[0, 0], [0, 1], [1, 2], [1, 3], [2, 0]])
    valid = np.array([[0, 4]])
    test = np.array([[0, 2], [1, 0], [2, 3]])
    return InteractionDataset("toy", num_users=3, num_items=5, train=train, valid=valid, test=test)


class TestEvaluateScores:
    def test_perfect_scores_give_perfect_recall(self):
        dataset = toy_dataset()
        scores = np.zeros((3, 5))
        scores[0, 2] = 10.0
        scores[1, 0] = 10.0
        scores[2, 3] = 10.0
        result = evaluate_scores(scores, dataset, split="test", ks=(1, 5))
        assert result.metrics["recall@1"] == pytest.approx(1.0)
        assert result.metrics["ndcg@1"] == pytest.approx(1.0)

    def test_train_items_are_masked(self):
        dataset = toy_dataset()
        scores = np.zeros((3, 5))
        # Give the training item the top score: it must not count as the prediction.
        scores[0, 0] = 100.0
        scores[0, 2] = 1.0
        result = evaluate_scores(scores, dataset, split="test", ks=(1,))
        per_user = result.per_user["recall@1"]
        assert per_user[0] == pytest.approx(1.0)

    def test_mask_train_can_be_disabled(self):
        dataset = toy_dataset()
        scores = np.zeros((3, 5))
        scores[0, 0] = 100.0
        result = evaluate_scores(scores, dataset, split="test", ks=(1,), mask_train=False)
        assert result.per_user["recall@1"][0] == pytest.approx(0.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            evaluate_scores(np.zeros((2, 2)), toy_dataset())

    def test_empty_split_rejected(self):
        dataset = InteractionDataset(
            "no-test", 2, 2, train=np.array([[0, 0]]), valid=np.empty((0, 2)), test=np.empty((0, 2))
        )
        with pytest.raises(ValueError):
            evaluate_scores(np.zeros((2, 2)), dataset, split="test")

    def test_nan_row_rejected(self):
        scores = np.zeros((3, 5))
        scores[1] = np.nan
        with pytest.raises(ValueError, match="5 NaN and 0 \\+inf"):
            evaluate_scores(scores, toy_dataset(), ks=(1,))

    def test_posinf_entry_rejected(self):
        scores = np.zeros((3, 5))
        scores[2, 4] = np.inf
        with pytest.raises(ValueError, match="0 NaN and 1 \\+inf"):
            evaluate_scores(scores, toy_dataset(), ks=(1,))

    def test_all_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="15 NaN"):
            evaluate_scores(np.full((3, 5), np.nan, dtype=np.float32), toy_dataset(), ks=(1,))

    def test_neginf_scores_are_legal(self):
        scores = np.full((3, 5), -np.inf)
        scores[0, 2] = 1.0
        result = evaluate_scores(scores, toy_dataset(), ks=(1,))
        assert result.per_user["recall@1"][0] == 1.0

    def test_num_users_counts_only_evaluated_users(self):
        dataset = toy_dataset()
        result = evaluate_scores(np.zeros((3, 5)), dataset, split="valid", ks=(5,))
        assert result.num_users == 1

    def test_metrics_between_zero_and_one(self, tiny_dataset, rng):
        scores = rng.normal(size=(tiny_dataset.num_users, tiny_dataset.num_items))
        result = evaluate_scores(scores, tiny_dataset, ks=(5, 10, 20))
        for value in result.metrics.values():
            assert 0.0 <= value <= 1.0

    def test_result_getitem_and_as_row(self):
        dataset = toy_dataset()
        result = evaluate_scores(np.zeros((3, 5)), dataset, ks=(5,))
        assert result["recall@5"] == result.metrics["recall@5"]
        assert "test/recall@5" in result.as_row(prefix="test/")


class TestRankingEvaluator:
    def test_evaluates_model_with_score_all(self, tiny_dataset):
        class Oracle:
            def score_all(self_inner):
                scores = np.zeros((tiny_dataset.num_users, tiny_dataset.num_items))
                for user, items in tiny_dataset.user_positives("test").items():
                    scores[user, items] = 10.0
                return scores

        evaluator = RankingEvaluator(tiny_dataset, ks=(20,))
        result = evaluator.evaluate(Oracle())
        assert result.metrics["recall@20"] > 0.9

    def test_random_scores_are_weak(self, tiny_dataset, rng):
        class Random:
            def score_all(self_inner):
                return rng.normal(size=(tiny_dataset.num_users, tiny_dataset.num_items))

        evaluator = RankingEvaluator(tiny_dataset, ks=(5,))
        assert evaluator.evaluate(Random()).metrics["recall@5"] < 0.5

    def test_requires_at_least_one_k(self, tiny_dataset):
        with pytest.raises(ValueError):
            RankingEvaluator(tiny_dataset, ks=())

    def test_ks_sorted_and_deduplicated(self, tiny_dataset):
        evaluator = RankingEvaluator(tiny_dataset, ks=(20, 5, 5, 10))
        assert evaluator.ks == (5, 10, 20)
