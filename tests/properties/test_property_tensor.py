"""Property-based tests for the autograd substrate (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, functional as F

SETTINGS = settings(max_examples=40, deadline=None)

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False, width=64
)


def matrices(max_rows: int = 6, max_cols: int = 5):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)),
        elements=finite_floats,
    )


class TestAlgebraicIdentities:
    @SETTINGS
    @given(matrices())
    def test_addition_commutes(self, a):
        b = np.ones_like(a) * 0.5
        np.testing.assert_allclose((Tensor(a) + Tensor(b)).data, (Tensor(b) + Tensor(a)).data)

    @SETTINGS
    @given(matrices())
    def test_double_negation_identity(self, a):
        np.testing.assert_allclose((-(-Tensor(a))).data, a)

    @SETTINGS
    @given(matrices())
    def test_sum_of_mean_scales(self, a):
        mean = Tensor(a).mean().item()
        total = Tensor(a).sum().item()
        np.testing.assert_allclose(mean * a.size, total, rtol=1e-9, atol=1e-9)

    @SETTINGS
    @given(matrices())
    def test_exp_log_roundtrip(self, a):
        shifted = np.abs(a) + 1.0
        np.testing.assert_allclose(Tensor(shifted).log().exp().data, shifted, rtol=1e-6)

    @SETTINGS
    @given(matrices())
    def test_relu_idempotent(self, a):
        once = Tensor(a).relu().data
        twice = Tensor(a).relu().relu().data
        np.testing.assert_allclose(once, twice)

    @SETTINGS
    @given(matrices())
    def test_transpose_involution(self, a):
        np.testing.assert_allclose(Tensor(a).T.T.data, a)


class TestGradientProperties:
    @SETTINGS
    @given(matrices())
    def test_sum_gradient_is_ones(self, a):
        tensor = Tensor(a, requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones_like(a))

    @SETTINGS
    @given(matrices())
    def test_linear_gradient_matches_coefficient(self, a):
        tensor = Tensor(a, requires_grad=True)
        (tensor * 3.5).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full_like(a, 3.5))

    @SETTINGS
    @given(matrices())
    def test_quadratic_gradient(self, a):
        tensor = Tensor(a, requires_grad=True)
        (tensor * tensor).sum().backward()
        np.testing.assert_allclose(tensor.grad, 2.0 * a, rtol=1e-9, atol=1e-9)

    @SETTINGS
    @given(matrices())
    def test_gradient_linearity_in_upstream(self, a):
        t1 = Tensor(a, requires_grad=True)
        (t1.sum() * 2.0).backward()
        t2 = Tensor(a, requires_grad=True)
        t2.sum().backward()
        np.testing.assert_allclose(t1.grad, 2.0 * t2.grad)


class TestFunctionalProperties:
    @SETTINGS
    @given(matrices())
    def test_softmax_simplex(self, a):
        probs = F.softmax(Tensor(a)).data
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    @SETTINGS
    @given(matrices(max_rows=5, max_cols=6))
    def test_l2_normalize_rows_at_most_unit(self, a):
        norms = np.linalg.norm(F.l2_normalize(Tensor(a)).data, axis=-1)
        assert (norms <= 1.0 + 1e-7).all()

    @SETTINGS
    @given(matrices())
    def test_cosine_similarity_bounded(self, a):
        sims = F.cosine_similarity(Tensor(a), Tensor(a + 1.0)).data
        assert (np.abs(sims) <= 1.0 + 1e-9).all()

    @SETTINGS
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 32), elements=finite_floats))
    def test_bpr_loss_positive(self, scores):
        # One-wide tables whose dot products are exactly the scores and half of them.
        size = len(scores)
        users = Tensor(np.ones((size, 1)))
        items = Tensor(np.concatenate([scores, scores * 0.5])[:, None])
        ids = np.arange(size)
        loss = F.bpr_loss(users, items, ids, ids, ids + size).item()
        assert loss > 0

    @SETTINGS
    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 32), elements=finite_floats))
    def test_softplus_above_relu(self, values):
        softplus = F.softplus(Tensor(values)).data
        relu = np.maximum(values, 0.0)
        assert (softplus >= relu - 1e-12).all()
