"""The row scatter behind the ``take_rows`` adjoint, against ``np.add.at``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, compile as nn_compile
from repro.nn.primitives import scatter_add_rows


def add_at_reference(indices, values, num_rows):
    """Unbuffered scatter-add into a zeroed table: the kernel being replaced."""
    table = np.zeros((num_rows, *values.shape[np.ndim(indices):]), dtype=values.dtype)
    np.add.at(table, np.asarray(indices, dtype=np.int64), values)
    return table


def random_case(rng, num_rows, index_shape, row_shape, low=None):
    low = 0 if low is None else low
    indices = rng.integers(low, num_rows, size=index_shape)
    values = rng.normal(size=(*np.shape(indices), *row_shape))
    return indices, values


CASES = {
    # Many rows hit the same bin, so the summation order decides the bits.
    "duplicates": dict(num_rows=7, index_shape=(300,), row_shape=(5,)),
    "negative": dict(num_rows=9, index_shape=(64,), row_shape=(4,), low=-9),
    "empty-index": dict(num_rows=6, index_shape=(0,), row_shape=(3,)),
    "1-d-table": dict(num_rows=11, index_shape=(50,), row_shape=()),
    "3-d-table": dict(num_rows=5, index_shape=(40,), row_shape=(3, 2)),
    "2-d-index": dict(num_rows=8, index_shape=(6, 7), row_shape=(4,)),
    "training-shape": dict(num_rows=165, index_shape=(1024,), row_shape=(32,)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_add_at_bit_for_bit(name):
    case = CASES[name]
    indices, values = random_case(np.random.default_rng(len(name)), **case)
    got = scatter_add_rows(indices, values, case["num_rows"])
    expected = add_at_reference(indices, values, case["num_rows"])
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_every_row_starts_from_zero():
    # Untouched rows are +0.0; a single -0.0 contribution sums to +0.0 as well.
    got = scatter_add_rows(np.array([2]), np.array([[-0.0, 1.0]]), 4)
    expected = add_at_reference(np.array([2]), np.array([[-0.0, 1.0]]), 4)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_eager_take_rows_gradient(name):
    case = CASES[name]
    rng = np.random.default_rng(100 + len(name))
    indices, upstream = random_case(rng, **case)
    table = Tensor(rng.normal(size=(case["num_rows"], *case["row_shape"])), requires_grad=True)
    (table.take_rows(indices) * Tensor(upstream)).sum().backward()
    assert np.array_equal(table.grad, add_at_reference(indices, upstream, case["num_rows"]))


class TestCompiledReplay:
    """The replay's VJP is the same scatter, re-run on fresh indices."""

    NUM_ROWS, ROW_SHAPE = 12, (3, 2)

    def _check(self, step, inputs_seq, index_of, upstream):
        rng = np.random.default_rng(5)
        params = [Parameter(rng.normal(size=(self.NUM_ROWS, *self.ROW_SHAPE)))]
        compiled = nn_compile(step)
        for inputs in inputs_seq:
            compiled(params, inputs)
            expected = add_at_reference(index_of(inputs), upstream, self.NUM_ROWS)
            assert np.array_equal(params[0].grad, expected)
        assert compiled.stats.traces == 1 and compiled.stats.replays == len(inputs_seq)
        assert compiled.stats.fallbacks == 0

    def test_static_indices(self):
        indices = np.array([0, 3, 3, -1, 11, 3, 0, -12])
        upstream = np.random.default_rng(1).normal(size=(len(indices), *self.ROW_SHAPE))

        def step(p, i):
            return (p[0].take_rows(indices) * Tensor(upstream)).sum()

        self._check(step, [{} for _ in range(3)], lambda inputs: indices, upstream)

    def test_dynamic_indices(self):
        rng = np.random.default_rng(2)
        upstream = rng.normal(size=(40, *self.ROW_SHAPE))

        def step(p, i):
            return (p[0].take_rows(i["idx"]) * Tensor(upstream)).sum()

        inputs_seq = [{"idx": rng.integers(-self.NUM_ROWS, 4, size=40)} for _ in range(4)]
        self._check(step, inputs_seq, lambda inputs: inputs["idx"], upstream)
