"""Fold-in solver: closed-form correctness, blending, config validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stream import FoldInConfig, fold_in_user, ridge_fold_in
from repro.stream.foldin import item_gram


@pytest.fixture()
def items(rng):
    return rng.normal(size=(40, 8))


class TestRidge:
    def test_matches_normal_equations(self, items):
        history = items[:6]
        solution, _ = ridge_fold_in(history, l2=0.5)
        expected = np.linalg.solve(
            history.T @ history + 0.5 * np.eye(8), history.T @ np.ones(6)
        )
        np.testing.assert_allclose(solution, expected, rtol=1e-10)

    def test_scores_interacted_items_high(self, items):
        history = items[:5]
        solution, _ = ridge_fold_in(history, l2=0.01)
        scores = history @ solution
        np.testing.assert_allclose(scores, np.ones(5), atol=0.35)

    def test_residual_zero_when_exactly_solvable(self, rng):
        # d >= s: the system is underdetermined, so l2 -> 0 fits exactly.
        history = rng.normal(size=(3, 8))
        _, residual = ridge_fold_in(history, l2=0.0)
        assert residual < 1e-8

    def test_custom_targets(self, items):
        history = items[:4]
        weights = np.array([2.0, 1.0, 1.0, 0.5])
        solution, _ = ridge_fold_in(history, weights=weights, l2=0.0)
        np.testing.assert_allclose(history @ solution, weights, atol=1e-8)

    def test_implicit_negatives_normal_equations(self, items):
        history = items[:6]
        gram = item_gram(items)
        solution, _ = ridge_fold_in(
            history, l2=0.5, gram=gram, implicit_weight=1.0, positive_boost=2.0
        )
        expected = np.linalg.solve(
            gram + 2.0 * history.T @ history + 0.5 * np.eye(8),
            3.0 * history.T @ np.ones(6),
        )
        np.testing.assert_allclose(solution, expected, rtol=1e-10)

    def test_implicit_negatives_suppress_unseen_scores(self, items):
        history = items[:6]
        plain, _ = ridge_fold_in(history, l2=0.1)
        discriminative, _ = ridge_fold_in(history, l2=0.1, gram=item_gram(items))
        unseen = items[6:]
        # The negative term shrinks scores on items the user never touched
        # relative to the scores on interacted items.
        def contrast(u):
            return (history @ u).mean() - (unseen @ u).mean()

        assert np.abs(unseen @ discriminative).mean() < np.abs(unseen @ plain).mean()
        assert contrast(discriminative) > 0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            ridge_fold_in(np.empty((0, 4)))

    def test_weight_length_mismatch(self, items):
        with pytest.raises(ValueError):
            ridge_fold_in(items[:3], weights=np.ones(2))


class TestFoldInUser:
    def test_new_user_takes_solution(self, items):
        result = fold_in_user(7, items[:4], config=FoldInConfig(l2=0.3))
        expected, _ = ridge_fold_in(items[:4], l2=0.3)
        assert result.was_new
        assert result.user_id == 7
        assert result.num_interactions == 4
        np.testing.assert_allclose(result.embedding, expected)

    def test_existing_user_blends(self, items):
        previous = np.full(8, 2.0)
        config = FoldInConfig(l2=0.3, decay=0.25)
        result = fold_in_user(1, items[:4], previous=previous, config=config)
        solved, _ = ridge_fold_in(items[:4], l2=0.3)
        assert not result.was_new
        np.testing.assert_allclose(result.embedding, 0.75 * previous + 0.25 * solved)

    def test_gram_passthrough(self, items):
        gram = item_gram(items)
        with_gram = fold_in_user(0, items[:4], config=FoldInConfig(), gram=gram)
        without = fold_in_user(0, items[:4], config=FoldInConfig())
        assert not np.allclose(with_gram.embedding, without.embedding)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l2": -1.0},
            {"decay": 0.0},
            {"decay": 1.5},
            {"implicit_weight": -0.1},
            {"positive_boost": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FoldInConfig(**kwargs)
