"""DaRec loss terms: orthogonality, uniformity, global and local structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.darec import (
    center_cosine_matrix,
    global_structure_loss,
    local_structure_loss,
    orthogonality_loss,
    pairwise_gaussian_potential,
    uniformity_loss,
)
from repro.nn import Tensor


class TestOrthogonalityLoss:
    def test_orthogonal_vectors_give_zero(self):
        specific = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        shared = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert orthogonality_loss(specific, shared).item() == pytest.approx(0.0, abs=1e-12)

    def test_parallel_vectors_give_one(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]]))
        assert orthogonality_loss(x, x).item() == pytest.approx(1.0)

    def test_antiparallel_vectors_also_give_one(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        assert orthogonality_loss(x, x * -1.0).item() == pytest.approx(1.0)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            orthogonality_loss(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))))

    def test_gradient_pushes_towards_orthogonality(self):
        rng = np.random.default_rng(0)
        specific = Tensor(rng.normal(size=(10, 6)), requires_grad=True)
        shared = Tensor(rng.normal(size=(10, 6)))
        before = orthogonality_loss(specific, shared).item()
        orthogonality_loss(specific, shared).backward()
        updated = Tensor(specific.data - 0.5 * specific.grad)
        after = orthogonality_loss(updated, shared).item()
        assert after < before


class TestUniformity:
    def test_collapsed_points_have_higher_potential_than_spread(self):
        collapsed = Tensor(np.ones((20, 4)))
        spread = Tensor(np.random.default_rng(1).normal(size=(20, 4)))
        assert pairwise_gaussian_potential(collapsed).item() > pairwise_gaussian_potential(spread).item()

    def test_uniformity_loss_sums_both_modalities(self):
        rng = np.random.default_rng(2)
        a, b = Tensor(rng.normal(size=(15, 4))), Tensor(rng.normal(size=(15, 4)))
        total = uniformity_loss(a, b).item()
        assert total == pytest.approx(
            pairwise_gaussian_potential(a).item() + pairwise_gaussian_potential(b).item()
        )

    def test_potential_bounded_above_by_zero(self):
        points = Tensor(np.random.default_rng(3).normal(size=(30, 8)))
        assert pairwise_gaussian_potential(points).item() <= 1e-9

    def test_gradient_spreads_points(self):
        points = Tensor(np.full((10, 3), 0.5) + 1e-3 * np.random.default_rng(4).normal(size=(10, 3)), requires_grad=True)
        before = pairwise_gaussian_potential(points).item()
        pairwise_gaussian_potential(points).backward()
        updated = Tensor(points.data - 0.1 * points.grad)
        after = pairwise_gaussian_potential(updated).item()
        assert after < before


class TestGlobalStructureLoss:
    def test_identical_structures_give_zero(self):
        x = Tensor(np.random.default_rng(5).normal(size=(12, 6)))
        assert global_structure_loss(x, x).item() == pytest.approx(0.0, abs=1e-12)

    def test_rotated_structure_still_zero(self):
        """Similarity structure is rotation invariant (S = E E^T = (ER)(ER)^T)."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 4))
        rotation, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert global_structure_loss(Tensor(x), Tensor(x @ rotation)).item() == pytest.approx(0.0, abs=1e-10)

    def test_different_structures_positive(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(10, 4)))
        b = Tensor(rng.normal(size=(10, 4)))
        assert global_structure_loss(a, b).item() > 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            global_structure_loss(Tensor(np.ones((4, 2))), Tensor(np.ones((5, 2))))

    def test_normalised_loss_scale_independent_of_sample_size(self):
        rng = np.random.default_rng(9)
        small_a, small_b = rng.normal(size=(20, 4)), rng.normal(size=(20, 4))
        big_a = np.concatenate([small_a] * 4)
        big_b = np.concatenate([small_b] * 4)
        small = global_structure_loss(Tensor(small_a), Tensor(small_b)).item()
        big = global_structure_loss(Tensor(big_a), Tensor(big_b)).item()
        assert big == pytest.approx(small, rel=1e-6)


class TestLocalStructureLoss:
    def test_identical_centres_give_zero_diagonal_term(self):
        centres = Tensor(np.eye(4))
        # identical centres: diagonal cosines are 1, off-diagonals are 0 → loss 0.
        assert local_structure_loss(centres, centres).item() == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_centres_penalised(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(4, 6)))
        b = Tensor(rng.normal(size=(4, 6)))
        assert local_structure_loss(a, b).item() > 0

    def test_single_centre_case(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[0.0, 1.0]]))
        # cosine 0 → (0-1)^2 = 1; no off-diagonal terms.
        assert local_structure_loss(a, b).item() == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            local_structure_loss(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))))

    def test_cosine_matrix_shape_and_range(self):
        rng = np.random.default_rng(11)
        matrix = center_cosine_matrix(Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(5, 3)))).data
        assert matrix.shape == (5, 5)
        assert (np.abs(matrix) <= 1.0 + 1e-9).all()

    def test_gradient_aligns_matched_centres(self):
        rng = np.random.default_rng(12)
        target = rng.normal(size=(3, 4))
        moving = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        before = local_structure_loss(moving, Tensor(target)).item()
        local_structure_loss(moving, Tensor(target)).backward()
        updated = Tensor(moving.data - 0.2 * moving.grad)
        after = local_structure_loss(updated, Tensor(target)).item()
        assert after < before


# --------------------------------------------------------------------------- #
# The fused kernels against the chains of small ops they replaced
# --------------------------------------------------------------------------- #
def unit_rows(x: Tensor) -> Tensor:
    """``F.l2_normalize(x)`` spelled out as the chain it replaced."""
    return x / (((x * x).sum(axis=1, keepdims=True) + 1e-12) ** 0.5)


def unfused_orthogonality(specific: Tensor, shared: Tensor) -> Tensor:
    cosine = (unit_rows(specific) * unit_rows(shared)).sum(axis=1)
    return (cosine * cosine).mean()


def unfused_potential(x: Tensor, t: float = 2.0) -> Tensor:
    unit = unit_rows(x)
    squared = (unit * unit).sum(axis=1, keepdims=True)
    distances = (squared + squared.T - 2.0 * (unit @ unit.T)).clip(0.0, 4.0)
    return (distances * (-t)).exp().mean().log()


def unfused_global(collab: Tensor, llm: Tensor) -> Tensor:
    collab, llm = unit_rows(collab), unit_rows(llm)
    diff = collab @ collab.T - llm @ llm.T
    return (diff * diff).sum() * (1.0 / (collab.shape[0] * collab.shape[0]))


def unfused_local(collab: Tensor, llm: Tensor) -> Tensor:
    k = collab.shape[0]
    eye = np.eye(k)
    similarity = unit_rows(collab) @ unit_rows(llm).T
    diagonal_term = (((similarity * Tensor(eye)).sum(axis=1) - 1.0) ** 2).mean()
    off_diag_term = ((similarity * Tensor(1.0 - eye)) ** 2).sum() * (1.0 / max(k * k - k, 1))
    return diagonal_term + off_diag_term


FUSED = [
    pytest.param(orthogonality_loss, unfused_orthogonality, 2, "squared_cosine_mean", id="orthogonality"),
    pytest.param(pairwise_gaussian_potential, unfused_potential, 1, "gaussian_potential", id="uniformity"),
    pytest.param(global_structure_loss, unfused_global, 2, "similarity_gap", id="global"),
    pytest.param(local_structure_loss, unfused_local, 2, "center_alignment", id="local"),
]


class TestFusedKernels:
    """Each term is one primitive; checked against finite differences and its unfused chain."""

    @pytest.mark.parametrize("fused,oracle,arity,op", FUSED)
    def test_is_one_node_on_the_tape(self, fused, oracle, arity, op):
        operands = [Tensor(np.ones((3, 2)) + np.eye(3, 2), requires_grad=True) for _ in range(arity)]
        loss = fused(*operands)
        assert loss._op == op and loss._parents == tuple(operands)

    @pytest.mark.parametrize("fused,oracle,arity,op", FUSED)
    def test_gradient_matches_finite_differences(self, fused, oracle, arity, op):
        rng = np.random.default_rng(41)
        values = [rng.normal(size=(6, 4)) for _ in range(arity)]
        upstream = 0.7

        def loss(arrays) -> float:
            return float(fused(*[Tensor(a) for a in arrays]).data) * upstream

        operands = [Tensor(v.copy(), requires_grad=True) for v in values]
        (fused(*operands) * upstream).backward()
        for position, value in enumerate(values):
            numeric = np.zeros_like(value)
            for index in np.ndindex(value.shape):
                plus = [v.copy() for v in values]
                minus = [v.copy() for v in values]
                plus[position][index] += 1e-6
                minus[position][index] -= 1e-6
                numeric[index] = (loss(plus) - loss(minus)) / 2e-6
            np.testing.assert_allclose(operands[position].grad, numeric, atol=1e-7, rtol=1e-6)

    @pytest.mark.parametrize("fused,oracle,arity,op", FUSED)
    def test_matches_unfused_chain(self, fused, oracle, arity, op):
        # Values: each kernel makes its chain's NumPy calls, so they come out
        # bitwise equal.  Gradients round differently; over 2,000 random
        # shapes (2-39 rows, 2-19 columns) and magnitudes (1e-3 to 1e3) the
        # gap stayed within 1.2e-14 of the largest gradient entry.  With one
        # row or one column the true gradient is zero and both sides are
        # rounding noise, so those shapes are not compared.
        bound = 1e-12
        rng = np.random.default_rng(43)
        for _ in range(100):
            shape = (int(rng.integers(2, 30)), int(rng.integers(2, 12)))
            values = [rng.normal(size=shape) * 10 ** rng.uniform(-3, 3) for _ in range(arity)]
            upstream = rng.normal()
            fused_in = [Tensor(v.copy(), requires_grad=True) for v in values]
            oracle_in = [Tensor(v.copy(), requires_grad=True) for v in values]
            fused_out, oracle_out = fused(*fused_in), oracle(*oracle_in)
            assert fused_out.data.tobytes() == oracle_out.data.tobytes()
            (fused_out * upstream).backward()
            (oracle_out * upstream).backward()
            for got, want in zip(fused_in, oracle_in):
                assert np.max(np.abs(got.grad - want.grad)) <= bound * np.max(np.abs(want.grad))
