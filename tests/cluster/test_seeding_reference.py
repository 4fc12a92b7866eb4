"""k-means++ seeding against the ``Generator.choice`` draw it replaced.

:func:`reference_kmeans_plus_plus` is the earlier seeding loop, kept verbatim:
each centre is ``rng.choice(n, p=closest_sq / total)``.  The current loop
runs the steps ``choice`` runs for one weighted draw (normalised cumulative
sum, one ``rng.random()``, a right-sided ``searchsorted``) without its
validation of ``p``; the chosen indices, the centres and the Generator state
left behind must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.kmeans import _kmeans_plus_plus


def reference_kmeans_plus_plus(data, k, rng):
    """The seeding loop as it was before ``choice`` was inlined."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    first = rng.integers(0, n)
    centers[0] = data[first]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-18:
            centers[index] = data[rng.integers(0, n)]
            continue
        probabilities = closest_sq / total
        choice = rng.choice(n, p=probabilities)
        centers[index] = data[choice]
        distances = ((data - centers[index]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distances)
    return centers


def one_draw(weights, rng):
    """The current loop's draw for one centre, on its own."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(), side="right")


def clones(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def weight_vectors(seed):
    """Squared-distance-like weights: skewed, with zeros (coincident points)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    weights = rng.random(n) ** int(rng.integers(1, 9))
    weights[rng.random(n) < (seed % 4) / 4] = 0.0
    if not weights.any():
        weights[int(rng.integers(0, n))] = 1.0
    return weights


@pytest.mark.parametrize("seed", range(400))
def test_one_draw_matches_choice(seed):
    weights = weight_vectors(seed)
    ours, theirs = clones(10_000 + seed)
    assert one_draw(weights, ours) == theirs.choice(len(weights), p=weights / weights.sum())
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_draw_never_lands_on_a_zero_weight():
    # Coincident points have zero weight; side="right" steps over their flat cdf runs.
    for seed in range(300):
        weights = weight_vectors(4 * seed + 3)
        assert weights[one_draw(weights, np.random.default_rng(seed))] > 0


def coincident(seed):
    """Many copies of a few points: seeding meets zero weights and the all-zero fallback."""
    rng = np.random.default_rng(seed)
    return np.repeat(rng.normal(size=(3, 5)), [12, 3, 1], axis=0)


SHAPES = {
    "darec-shape": lambda s: np.random.default_rng(s).normal(size=(64, 16)),
    "ivf-like": lambda s: np.random.default_rng(s).normal(size=(400, 8)),
    "one-column": lambda s: np.random.default_rng(s).normal(size=(30, 1)),
    "integer-grid": lambda s: np.random.default_rng(s).integers(0, 3, size=(40, 2)).astype(float),
    "coincident": coincident,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("k", [1, 2, 5, 12])
@pytest.mark.parametrize("seed", range(8))
def test_seeding_matches_reference(shape, k, seed):
    data = SHAPES[shape](seed)
    ours, theirs = clones(seed)
    centers = _kmeans_plus_plus(data, k, ours)
    expected = reference_kmeans_plus_plus(data, k, theirs)
    assert centers.tobytes() == expected.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state
