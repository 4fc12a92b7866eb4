"""Eager-vs-compiled equivalence for every layer and optimiser (f32 + f64)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Dropout,
    Embedding,
    Linear,
    Sequential,
    Tensor,
    compile as nn_compile,
)

DTYPES = [np.float32, np.float64]


def cast_params(module, dtype):
    params = list(module.parameters())
    for param in params:
        param.data = param.data.astype(dtype)
    return params


def assert_arms_identical(build_module, step_of, inputs_seq, dtype, lr=0.05):
    """Two freshly built modules, one per execution arm, stay bitwise equal."""
    eager_module, replay_module = build_module(), build_module()
    eager_params = cast_params(eager_module, dtype)
    replay_params = cast_params(replay_module, dtype)
    eager_step = nn_compile(step_of(eager_module), mode="eager")
    replay_step = nn_compile(step_of(replay_module))
    for inputs in inputs_seq:
        eager_loss = eager_step(eager_params, inputs)
        replay_loss = replay_step(replay_params, inputs)
        assert eager_loss == replay_loss
        for eager_param, replay_param in zip(eager_params, replay_params):
            assert eager_param.grad.dtype == replay_param.grad.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(eager_param.grad, replay_param.grad)
            eager_param.data = eager_param.data - lr * eager_param.grad
            replay_param.data = replay_param.data - lr * replay_param.grad
    return replay_step


RNG = np.random.default_rng(5)


def batches(shape, count=3, seed=9):
    rng = np.random.default_rng(seed)
    return [{"x": rng.normal(size=shape)} for _ in range(count)]


@pytest.mark.parametrize("dtype", DTYPES)
class TestLayerEquivalence:
    def test_linear(self, dtype):
        def step_of(module):
            return lambda p, i: module(i["x"]).sum()

        assert_arms_identical(
            lambda: Linear(4, 3, rng=np.random.default_rng(0)),
            step_of,
            batches((6, 4)),
            dtype,
        )

    def test_linear_without_bias(self, dtype):
        def step_of(module):
            return lambda p, i: (module(i["x"]) ** 2).mean()

        assert_arms_identical(
            lambda: Linear(4, 3, bias=False, rng=np.random.default_rng(0)),
            step_of,
            batches((6, 4)),
            dtype,
        )

    def test_mlp(self, dtype):
        def step_of(module):
            return lambda p, i: module(i["x"]).tanh().sum()

        for activation in ("relu", "tanh", "leaky_relu", "identity"):
            assert_arms_identical(
                lambda: MLP(4, [8], 2, activation=activation, rng=np.random.default_rng(1)),
                step_of,
                batches((5, 4)),
                dtype,
            )

    def test_sequential_with_callable_stage(self, dtype):
        def build():
            rng = np.random.default_rng(2)
            return Sequential(Linear(4, 6, rng=rng), Tensor.tanh, Linear(6, 2, rng=rng))

        def step_of(module):
            return lambda p, i: module(i["x"]).sum()

        assert_arms_identical(build, step_of, batches((5, 4)), dtype)

    def test_embedding_dynamic_lookup(self, dtype):
        rng = np.random.default_rng(3)
        inputs_seq = [{"idx": rng.integers(0, 10, size=7)} for _ in range(3)]

        def step_of(module):
            return lambda p, i: (module(i["idx"]) ** 2).sum()

        assert_arms_identical(
            lambda: Embedding(10, 4, rng=np.random.default_rng(4)),
            step_of,
            inputs_seq,
            dtype,
        )

    def test_eval_dropout_is_traceable_identity(self, dtype):
        def build():
            rng = np.random.default_rng(6)
            module = Sequential(Linear(4, 3, rng=rng), Dropout(0.5))
            module.eval()
            return module

        def step_of(module):
            return lambda p, i: module(i["x"]).sum()

        compiled = assert_arms_identical(build, step_of, batches((5, 4)), dtype)
        assert compiled.stats.traces == 1
        assert compiled.stats.fallbacks == 0

    def test_training_dropout_falls_back_but_still_trains(self, dtype):
        module = Sequential(Linear(4, 3, rng=np.random.default_rng(6)), Dropout(0.5))
        params = cast_params(module, dtype)
        compiled = nn_compile(lambda p, i: module(i["x"]).sum())
        for inputs in batches((5, 4)):
            loss = compiled(params, inputs)
            assert np.isfinite(loss)
            assert params[0].grad is not None
        assert compiled.stats.fallbacks == 1
        assert compiled.stats.traces == 0


@pytest.mark.parametrize("dtype", DTYPES)
class TestOptimizerEquivalence:
    """Whole training trajectories coincide bitwise under Adam."""

    def _run(self, dtype, make_optimizer, steps=12):
        def build():
            return MLP(4, [6], 2, rng=np.random.default_rng(8))

        eager_module, replay_module = build(), build()
        eager_params = cast_params(eager_module, dtype)
        replay_params = cast_params(replay_module, dtype)

        def step_of(module):
            return lambda p, i: ((module(i["x"]) - i["y"]) ** 2).mean()

        eager_step = nn_compile(step_of(eager_module), mode="eager")
        replay_step = nn_compile(step_of(replay_module))
        eager_opt = make_optimizer(eager_params)
        replay_opt = make_optimizer(replay_params)

        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(steps):
            inputs_a = {"x": rng_a.normal(size=(6, 4)), "y": rng_a.random((6, 2))}
            inputs_b = {"x": rng_b.normal(size=(6, 4)), "y": rng_b.random((6, 2))}
            loss_a = eager_step(eager_params, inputs_a)
            eager_opt.step()
            loss_b = replay_step(replay_params, inputs_b)
            replay_opt.step()
            assert loss_a == loss_b
        for pa, pb in zip(eager_params, replay_params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_adam(self, dtype):
        self._run(dtype, lambda params: Adam(params, lr=0.01))

    def test_adam_with_weight_decay(self, dtype):
        self._run(dtype, lambda params: Adam(params, lr=0.01, weight_decay=1e-4))
