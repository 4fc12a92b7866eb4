"""Gradient correctness of every Tensor primitive against finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor


def numerical_gradient(fn, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued ``fn``."""
    gradient = np.zeros_like(value, dtype=np.float64)
    flat_value = value.reshape(-1)
    flat_gradient = gradient.reshape(-1)
    for index in range(flat_value.size):
        original = flat_value[index]
        flat_value[index] = original + eps
        upper = fn(value)
        flat_value[index] = original - eps
        lower = fn(value)
        flat_value[index] = original
        flat_gradient[index] = (upper - lower) / (2.0 * eps)
    return gradient


def check_gradient(build_loss, shape=(4, 3), seed=0, atol=1e-5):
    """Compare autograd gradients with numerical ones for a random input."""
    rng = np.random.default_rng(seed)
    value = rng.normal(0.0, 1.0, size=shape)
    tensor = Tensor(value.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()

    def scalar_fn(array: np.ndarray) -> float:
        return float(build_loss(Tensor(array.copy())).data)

    expected = numerical_gradient(scalar_fn, value.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol, rtol=1e-4)


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda t: (t + 2.5).sum())

    def test_add_broadcast(self):
        other = Tensor(np.ones((1, 3)) * 0.5)
        check_gradient(lambda t: (t + other).sum())

    def test_sub(self):
        check_gradient(lambda t: (t - 1.3).sum())

    def test_rsub(self):
        check_gradient(lambda t: (1.3 - t).sum())

    def test_mul(self):
        check_gradient(lambda t: (t * t).sum())

    def test_mul_broadcast(self):
        scale = Tensor(np.arange(1, 4, dtype=float))
        check_gradient(lambda t: (t * scale).sum())

    def test_div(self):
        check_gradient(lambda t: (t / 2.0).sum())

    def test_rdiv(self):
        check_gradient(lambda t: (1.0 / (t + 5.0)).sum(), shape=(3, 2))

    def test_neg(self):
        check_gradient(lambda t: (-t).sum())

    def test_pow(self):
        check_gradient(lambda t: ((t + 5.0) ** 3).sum())

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(3)) ** Tensor(np.ones(3))


class TestMatmulGradients:
    def test_matmul_2d(self):
        other = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
        check_gradient(lambda t: (t @ other).sum())

    def test_matmul_right_operand(self):
        rng = np.random.default_rng(2)
        left_value = rng.normal(size=(4, 3))
        right = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        loss = (Tensor(left_value) @ right).sum()
        loss.backward()

        def scalar_fn(array):
            return float((Tensor(left_value) @ Tensor(array.copy())).sum().data)

        expected = numerical_gradient(scalar_fn, right.data.copy())
        np.testing.assert_allclose(right.grad, expected, atol=1e-5)

    def test_matvec(self):
        vector = Tensor(np.arange(3, dtype=float))
        check_gradient(lambda t: (t @ vector).sum())

    def test_vecmat(self):
        matrix = Tensor(np.random.default_rng(3).normal(size=(3, 4)))
        check_gradient(lambda t: (t @ matrix).sum(), shape=(3,))


class TestReductionGradients:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum())

    def test_sum_axis_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum())

    def test_sum_axis_no_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum())

    def test_mean_all(self):
        check_gradient(lambda t: t.mean() * 7.0)

    def test_mean_axis(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum())


class TestElementwiseGradients:
    def test_exp(self):
        check_gradient(lambda t: t.exp().sum())

    def test_log(self):
        check_gradient(lambda t: (t + 10.0).log().sum())

    def test_sqrt(self):
        check_gradient(lambda t: (t + 10.0).sqrt().sum())

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum())

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum())

    def test_relu(self):
        # Shift away from zero to avoid the kink in the finite-difference check.
        check_gradient(lambda t: (t + 3.0).relu().sum())

    def test_leaky_relu(self):
        check_gradient(lambda t: (t + 3.0).leaky_relu(0.1).sum())

    def test_abs(self):
        check_gradient(lambda t: (t + 3.0).abs().sum())

    def test_clip_interior(self):
        check_gradient(lambda t: t.clip(-10.0, 10.0).sum())

    def test_clip_blocks_gradient_outside_range(self):
        tensor = Tensor(np.array([5.0, -5.0, 0.5]), requires_grad=True)
        tensor.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 0.0, 1.0])


class TestShapeGradients:
    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(12) ** 2).sum(), shape=(4, 3))

    def test_reshape_tuple_argument(self):
        check_gradient(lambda t: (t.reshape((2, 6)) ** 2).sum(), shape=(4, 3))

    def test_transpose(self):
        check_gradient(lambda t: (t.T ** 2).sum())

    def test_take_rows(self):
        indices = np.array([0, 2, 2, 1])
        check_gradient(lambda t: (t.take_rows(indices) ** 2).sum())

    def test_take_rows_duplicate_accumulation(self):
        tensor = Tensor(np.ones((3, 2)), requires_grad=True)
        tensor.take_rows(np.array([1, 1, 1])).sum().backward()
        np.testing.assert_allclose(tensor.grad, [[0, 0], [3, 3], [0, 0]])

    def test_boolean_mask_selects_rows(self):
        data = np.arange(8.0).reshape(4, 2)
        tensor = Tensor(data, requires_grad=True)
        mask = np.array([False, True, False, True])
        picked = tensor[mask]
        np.testing.assert_array_equal(picked.data, data[mask])
        picked.sum().backward()
        np.testing.assert_array_equal(tensor.grad, [[0, 0], [1, 1], [0, 0], [1, 1]])
        np.testing.assert_array_equal(tensor.take_rows([True, False, False, False]).data, data[:1])

    def test_boolean_mask_must_cover_every_row(self):
        with pytest.raises(IndexError):
            Tensor(np.ones((4, 2))).take_rows(np.array([True, False]))

    def test_non_integer_indices_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.ones((4, 2))).take_rows(np.array([0.0, 1.5]))
        assert Tensor(np.ones((4, 2))).take_rows([]).shape == (0, 2)

    def test_getitem_slice(self):
        check_gradient(lambda t: (t[1:3] ** 2).sum())

    def test_getitem_fancy_tuple(self):
        rows = np.array([0, 1, 2])
        cols = np.array([1, 0, 2])
        check_gradient(lambda t: (t[rows, cols] ** 2).sum())

    def test_concat(self):
        other = Tensor(np.ones((2, 3)), requires_grad=True)
        tensor = Tensor(np.full((4, 3), 2.0), requires_grad=True)
        Tensor.concat([tensor, other], axis=0).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones((4, 3)))
        np.testing.assert_allclose(other.grad, np.ones((2, 3)))

    def test_concat_axis1_gradient(self):
        check_gradient(
            lambda t: (Tensor.concat([t, t * 2.0], axis=1) ** 2).sum(),
            shape=(3, 2),
        )

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        (Tensor.stack([a, b], axis=0) * Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(b.grad, [4.0, 5.0, 6.0])


class TestForwardValues:
    def test_add_matches_numpy(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        b = np.ones((2, 3)) * 2
        np.testing.assert_allclose((Tensor(a) + Tensor(b)).data, a + b)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_integer_input_promoted_to_float(self):
        tensor = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(tensor.dtype, np.floating)

    def test_item_and_len(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_shape_and_grad(self):
        text = repr(Tensor(np.zeros((2, 2)), requires_grad=True))
        assert "(2, 2)" in text and "requires_grad" in text
