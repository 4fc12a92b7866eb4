"""Behavioural tests for the functional building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, functional as F


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(5, 7)))
        probs = F.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
        assert (probs >= 0).all()

    def test_softmax_is_shift_invariant(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(2).normal(size=(4, 6)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-8
        )

    def test_softplus_positive_and_close_to_relu_for_large_inputs(self):
        values = Tensor(np.array([-50.0, -1.0, 0.0, 1.0, 50.0]))
        out = F.softplus(values).data
        assert (out > 0).all()
        assert out[-1] == pytest.approx(50.0, abs=1e-6)
        assert out[0] == pytest.approx(0.0, abs=1e-6)

    def test_relu_sigmoid_tanh_wrappers(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(F.relu(x).data, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(F.sigmoid(x).data, 1 / (1 + np.exp([1.0, 0.0, -2.0])))
        np.testing.assert_allclose(F.tanh(x).data, np.tanh([-1.0, 0.0, 2.0]))


class TestNormalisation:
    def test_l2_normalize_unit_rows(self):
        x = Tensor(np.random.default_rng(3).normal(size=(6, 4)) * 10)
        norms = np.linalg.norm(F.l2_normalize(x).data, axis=1)
        np.testing.assert_allclose(norms, np.ones(6), atol=1e-9)

    def test_l2_normalize_zero_row_is_safe(self):
        x = Tensor(np.zeros((2, 3)))
        out = F.l2_normalize(x).data
        assert np.isfinite(out).all()

    def test_cosine_similarity_range(self):
        rng = np.random.default_rng(4)
        a, b = Tensor(rng.normal(size=(10, 5))), Tensor(rng.normal(size=(10, 5)))
        sims = F.cosine_similarity(a, b).data
        assert (sims <= 1.0 + 1e-9).all() and (sims >= -1.0 - 1e-9).all()

    def test_cosine_similarity_of_identical_rows_is_one(self):
        a = Tensor(np.random.default_rng(5).normal(size=(4, 3)))
        np.testing.assert_allclose(F.cosine_similarity(a, a).data, np.ones(4), atol=1e-9)

    def test_pairwise_cosine_shape_and_diagonal(self):
        a = Tensor(np.random.default_rng(6).normal(size=(5, 4)))
        matrix = F.pairwise_cosine(a, a).data
        assert matrix.shape == (5, 5)
        np.testing.assert_allclose(np.diag(matrix), np.ones(5), atol=1e-9)


def unfused_l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """``l2_normalize`` spelled out as the five-primitive chain it replaced."""
    return x / (((x * x).sum(axis=axis, keepdims=True) + eps) ** 0.5)


class TestFusedL2Normalize:
    """The ``l2_normalize`` primitive against finite differences and its unfused chain."""

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_gradient_matches_finite_differences(self, axis):
        rng = np.random.default_rng(8)
        value = rng.normal(size=(5, 4))
        weights = rng.normal(size=(5, 4))

        def loss(array: np.ndarray) -> float:
            return float((F.l2_normalize(Tensor(array), axis=axis) * Tensor(weights)).sum().data)

        x = Tensor(value.copy(), requires_grad=True)
        (F.l2_normalize(x, axis=axis) * Tensor(weights)).sum().backward()
        numeric = np.zeros_like(value)
        for index in np.ndindex(value.shape):
            step = np.zeros_like(value)
            step[index] = 1e-6
            numeric[index] = (loss(value + step) - loss(value - step)) / 2e-6
        np.testing.assert_allclose(x.grad, numeric, atol=1e-7, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_unfused_chain(self, dtype):
        # Forward: the same NumPy calls, so the same bits (a float32 input
        # gets a float64 result either way).  Backward: the closed form
        # (g - y * sum(g * y)) / |x| rounds differently from the chain's
        # VJPs; per slice the gap stays within BOUND * eps * |g| / |x| (the
        # Jacobian's scale).  Measured over 2,000 random shapes, axes and
        # magnitudes (1e-3 to 1e3): at most 2.73 (float64) and 1.13 (float32).
        bound = 8.0
        rng = np.random.default_rng(21)
        for trial in range(200):
            axis = (-1, 0)[trial % 2]
            shape = (int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            value = (rng.normal(size=shape) * 10 ** rng.uniform(-3, 3)).astype(dtype)
            upstream = rng.normal(size=shape)
            fused, unfused = Tensor(value.copy(), requires_grad=True), Tensor(value.copy(), requires_grad=True)
            fused_out = F.l2_normalize(fused, axis=axis)
            unfused_out = unfused_l2_normalize(unfused, axis=axis)
            assert fused_out.dtype == unfused_out.dtype
            assert fused_out.data.tobytes() == unfused_out.data.tobytes()
            (fused_out * Tensor(upstream)).sum().backward()
            (unfused_out * Tensor(upstream)).sum().backward()
            assert fused.grad.dtype == unfused.grad.dtype == dtype
            gap = np.abs(fused.grad.astype(np.float64) - unfused.grad.astype(np.float64))
            x_norm = np.sqrt((value.astype(np.float64) ** 2).sum(axis=axis, keepdims=True))
            g_norm = np.sqrt((upstream**2).sum(axis=axis, keepdims=True))
            assert (gap <= bound * np.finfo(dtype).eps * g_norm / x_norm).all()

    def test_zero_row_gradient_is_finite(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        F.l2_normalize(x).sum().backward()
        assert np.isfinite(x.grad).all()

    def test_is_one_node_on_the_tape(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        out = F.l2_normalize(x)
        assert out._op == "l2_normalize" and out._parents == (x,)


class TestLosses:
    def test_bpr_loss_lower_when_positives_score_higher(self):
        pos = Tensor(np.full(8, 3.0))
        neg = Tensor(np.full(8, -3.0))
        good = F.bpr_loss(pos, neg).item()
        bad = F.bpr_loss(neg, pos).item()
        assert good < bad
        assert good > 0

    def test_bpr_loss_equal_scores(self):
        scores = Tensor(np.zeros(5))
        assert F.bpr_loss(scores, scores).item() == pytest.approx(np.log(2.0))

    def test_mse_loss_zero_for_identical(self):
        x = Tensor(np.random.default_rng(7).normal(size=(3, 3)))
        assert F.mse_loss(x, x.data).item() == pytest.approx(0.0)

    def test_mse_loss_matches_numpy(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        assert F.mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(np.mean((a - b) ** 2))

    def test_bce_loss_confident_correct_is_small(self):
        logits = Tensor(np.array([10.0, -10.0]))
        labels = np.array([1.0, 0.0])
        assert F.bce_loss(logits, labels).item() < 1e-3

    def test_bce_loss_confident_wrong_is_large(self):
        logits = Tensor(np.array([10.0, -10.0]))
        labels = np.array([0.0, 1.0])
        assert F.bce_loss(logits, labels).item() > 5.0

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]]))
        assert F.cross_entropy_loss(logits, np.array([0, 1])).item() < 1e-6

    def test_cross_entropy_uniform_prediction(self):
        logits = Tensor(np.zeros((4, 5)))
        assert F.cross_entropy_loss(logits, np.zeros(4, dtype=int)).item() == pytest.approx(np.log(5.0))

    def test_l2_regularization_scale(self):
        x = Tensor(np.ones((4, 3)))
        # 0.5 * sum(x^2) / batch = 0.5 * 12 / 4
        assert F.l2_regularization(x).item() == pytest.approx(1.5)

    def test_l2_regularization_multiple_tensors(self):
        x = Tensor(np.ones((2, 2)))
        y = Tensor(np.ones((2, 2)) * 2)
        assert F.l2_regularization(x, y).item() == pytest.approx(0.5 * (4 + 16) / 2)

    def test_info_nce_aligned_pairs_beat_shuffled(self):
        rng = np.random.default_rng(9)
        anchor = rng.normal(size=(16, 8))
        aligned = F.info_nce(Tensor(anchor), Tensor(anchor + 0.01 * rng.normal(size=(16, 8)))).item()
        shuffled = F.info_nce(Tensor(anchor), Tensor(anchor[rng.permutation(16)])).item()
        assert aligned < shuffled

    def test_info_nce_temperature_sharpens(self):
        rng = np.random.default_rng(10)
        anchor = rng.normal(size=(12, 6))
        positive = anchor + 0.05 * rng.normal(size=(12, 6))
        sharp = F.info_nce(Tensor(anchor), Tensor(positive), temperature=0.05).item()
        flat = F.info_nce(Tensor(anchor), Tensor(positive), temperature=5.0).item()
        assert sharp < flat

    def test_dot_scores_shape(self):
        users = Tensor(np.random.default_rng(11).normal(size=(7, 4)))
        items = Tensor(np.random.default_rng(12).normal(size=(9, 4)))
        assert F.dot_scores(users, items).shape == (7, 9)


class TestLossGradients:
    def test_bpr_loss_gradient_direction(self):
        pos = Tensor(np.zeros(4), requires_grad=True)
        neg = Tensor(np.zeros(4), requires_grad=True)
        F.bpr_loss(pos, neg).backward()
        # Increasing positive scores should decrease the loss (negative gradient).
        assert (pos.grad < 0).all()
        assert (neg.grad > 0).all()

    def test_info_nce_gradient_flows_to_both_sides(self):
        rng = np.random.default_rng(13)
        anchor = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        positive = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        F.info_nce(anchor, positive).backward()
        assert anchor.grad is not None and np.abs(anchor.grad).sum() > 0
        assert positive.grad is not None and np.abs(positive.grad).sum() > 0

    def test_cross_entropy_gradient_shape(self):
        logits = Tensor(np.random.default_rng(14).normal(size=(5, 3)), requires_grad=True)
        F.cross_entropy_loss(logits, np.array([0, 1, 2, 1, 0])).backward()
        assert logits.grad.shape == (5, 3)
