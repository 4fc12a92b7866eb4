"""Optimiser behaviour: convergence, weight decay, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Linear, Parameter, Tensor


def quadratic_loss(param: Parameter) -> Tensor:
    """Simple convex objective (x - 3)^2 summed over all entries."""
    return ((param - 3.0) ** 2).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.full(3, 10.0))
        optimizer = Adam([param], lr=0.1)
        for _ in range(500):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, np.full(3, 3.0), atol=1e-2)

    def test_weight_decay_shrinks_solution(self):
        def solve(weight_decay: float) -> float:
            param = Parameter(np.zeros(2))
            optimizer = Adam([param], lr=0.05, weight_decay=weight_decay)
            for _ in range(400):
                optimizer.zero_grad()
                quadratic_loss(param).backward()
                optimizer.step()
            return float(param.data.mean())

        assert solve(1.0) < solve(0.0)

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        true_weight = rng.normal(size=(5, 1))
        inputs = rng.normal(size=(64, 5))
        targets = inputs @ true_weight
        layer = Linear(5, 1, rng=rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            optimizer.zero_grad()
            prediction = layer(Tensor(inputs))
            loss = ((prediction - Tensor(targets)) ** 2).mean()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_weight, atol=0.05)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.2, 0.999))


class TestOptimizerValidation:
    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_nonpositive_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_negative_weight_decay_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, weight_decay=-1.0)
