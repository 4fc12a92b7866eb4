"""Tape mechanics: accumulation, reuse, no_grad, detach, error handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, is_grad_enabled, no_grad
from repro.nn.primitives import _unbroadcast


class TestBackwardMechanics:
    def test_backward_requires_scalar_without_gradient(self):
        tensor = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (tensor * 2.0).backward()

    def test_backward_with_explicit_gradient(self):
        tensor = Tensor(np.ones((2, 2)), requires_grad=True)
        out = tensor * 3.0
        out.backward(np.full((2, 2), 2.0))
        np.testing.assert_allclose(tensor.grad, np.full((2, 2), 6.0))

    def test_gradients_accumulate_across_backward_calls(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        (tensor * 2.0).sum().backward()
        (tensor * 2.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full(3, 4.0))

    def test_zero_grad_clears_gradient(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        (tensor * 2.0).sum().backward()
        tensor.zero_grad()
        assert tensor.grad is None

    def test_reused_tensor_accumulates_through_both_paths(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        out = (tensor * 2.0).sum() + (tensor * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(tensor.grad, np.full(3, 5.0))

    def test_diamond_graph(self):
        tensor = Tensor(np.array([2.0]), requires_grad=True)
        a = tensor * 3.0
        b = tensor * 4.0
        (a * b).sum().backward()
        # d/dx (3x * 4x) = 24x = 48
        np.testing.assert_allclose(tensor.grad, [48.0])

    def test_deep_chain_survives_without_recursion_error(self):
        tensor = Tensor(np.array([1.0]), requires_grad=True)
        value = tensor
        for _ in range(2000):
            value = value + 1.0
        value.sum().backward()
        np.testing.assert_allclose(tensor.grad, [1.0])

    def test_constant_parents_receive_no_gradient(self):
        constant = Tensor(np.ones(3))
        variable = Tensor(np.ones(3), requires_grad=True)
        (constant * variable).sum().backward()
        assert constant.grad is None
        np.testing.assert_allclose(variable.grad, np.ones(3))


class TestGradMode:
    def test_no_grad_disables_tape(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = tensor * 2.0
        assert not out.requires_grad
        assert out._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_tensor_created_inside_no_grad_never_requires_grad(self):
        with no_grad():
            tensor = Tensor(np.ones(3), requires_grad=True)
        assert not tensor.requires_grad

    def test_detach_cuts_graph(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        detached = (tensor * 2.0).detach()
        assert not detached.requires_grad
        loss = (detached * 3.0).sum()
        loss.backward()
        assert tensor.grad is None


class TestHelpers:
    def test_as_tensor_passthrough(self):
        tensor = Tensor(np.ones(2))
        assert as_tensor(tensor) is tensor

    def test_as_tensor_from_list(self):
        tensor = as_tensor([1.0, 2.0])
        np.testing.assert_allclose(tensor.data, [1.0, 2.0])

    def test_copy_is_independent(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        duplicate = tensor.copy()
        duplicate.data[0] = 99.0
        assert tensor.data[0] == 1.0
        assert duplicate.requires_grad

    def test_numpy_returns_underlying_array(self):
        array = np.ones(3)
        assert Tensor(array).numpy() is not None

    def test_shape_ndim_size(self):
        tensor = Tensor(np.zeros((3, 4)))
        assert tensor.shape == (3, 4)
        assert tensor.ndim == 2
        assert tensor.size == 12


class TestBroadcastUnbroadcast:
    def test_row_vector_bias_gradient(self):
        bias = Tensor(np.zeros((1, 3)), requires_grad=True)
        data = Tensor(np.ones((5, 3)))
        (data + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full((1, 3), 5.0))

    def test_vector_bias_gradient(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        data = Tensor(np.ones((5, 3)))
        (data + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(3, 5.0))

    def test_scalar_tensor_gradient(self):
        scalar = Tensor(np.array(2.0), requires_grad=True)
        data = Tensor(np.ones((4, 2)))
        (data * scalar).sum().backward()
        np.testing.assert_allclose(scalar.grad, 8.0)

    def test_column_vector_gradient(self):
        column = Tensor(np.ones((4, 1)), requires_grad=True)
        data = Tensor(np.full((4, 3), 2.0))
        (data * column).sum().backward()
        np.testing.assert_allclose(column.grad, np.full((4, 1), 6.0))


class TestNoGradDecorator:
    def test_decorator_disables_recording(self):
        @no_grad()
        def double(tensor):
            assert not is_grad_enabled()
            return tensor * 2.0

        tensor = Tensor(np.ones(3), requires_grad=True)
        out = double(tensor)
        assert is_grad_enabled()  # restored after the call
        assert not out.requires_grad

    def test_decorator_restores_flag_on_exception(self):
        @no_grad()
        def explode():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            explode()
        assert is_grad_enabled()

    def test_decorator_preserves_metadata_and_passthrough(self):
        @no_grad()
        def documented(a, b=2.0):
            """docstring survives wrapping"""
            return a + b

        assert documented.__name__ == "documented"
        assert "survives" in documented.__doc__
        assert documented(1.0) == 3.0

    def test_nested_decorator_inside_context_manager(self):
        @no_grad()
        def inner():
            return is_grad_enabled()

        with no_grad():
            assert inner() is False
            assert not is_grad_enabled()  # outer context still active
        assert is_grad_enabled()


class TestUnbroadcastEdgeCases:
    """Direct unit coverage of the broadcasting adjoint."""

    def test_identity_when_shapes_match(self):
        grad = np.arange(6.0).reshape(2, 3)
        out = _unbroadcast(grad, (2, 3))
        assert out is grad  # no copy on the fast path

    def test_prepended_axes_summed(self):
        grad = np.ones((4, 2, 3))
        np.testing.assert_array_equal(_unbroadcast(grad, (2, 3)), np.full((2, 3), 4.0))

    def test_stretched_axis_summed_with_keepdims(self):
        grad = np.ones((2, 5))
        np.testing.assert_array_equal(_unbroadcast(grad, (2, 1)), np.full((2, 1), 5.0))

    def test_prepended_and_stretched_axes_combined(self):
        # (1, 3) broadcast against (4, 2, 3) -> grad (4, 2, 3); the adjoint
        # sums the prepended leading axis AND the stretched row axis.
        grad = np.ones((4, 2, 3))
        np.testing.assert_array_equal(_unbroadcast(grad, (1, 3)), np.full((1, 3), 8.0))

    def test_column_and_row_stretch_combined(self):
        grad = np.arange(24.0).reshape(2, 3, 4)
        out = _unbroadcast(grad, (2, 1, 1))
        np.testing.assert_array_equal(out, grad.sum(axis=(1, 2), keepdims=True))

    def test_zero_d_grad_target(self):
        grad = np.ones((4, 2))
        out = _unbroadcast(grad, ())
        assert out.shape == ()
        assert out == 8.0

    def test_zero_d_grad_passthrough(self):
        grad = np.array(3.5)
        out = _unbroadcast(grad, ())
        assert out is grad

    def test_scalar_grad_into_length_one_vector(self):
        grad = np.ones((7, 1))
        np.testing.assert_array_equal(_unbroadcast(grad, (1,)), np.array([7.0]))
