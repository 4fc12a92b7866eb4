"""The lean Lloyd loop of :func:`repro.cluster.kmeans` against the loop it replaced.

:func:`reference_kmeans` is that earlier loop, kept verbatim: centre sums via
:func:`~repro.nn.primitives.scatter_add_rows`, a per-iteration empty mask and
``np.linalg.norm`` row norms for the stopping test.  The current loop inlines
the bincount with precomputed column offsets and takes one square root of the
largest squared shift; labels, centres, inertia and iteration counts must match
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import kmeans
from repro.cluster.kmeans import _kmeans_plus_plus, _nearest, assign_to_centers
from repro.nn.primitives import scatter_add_rows


def reference_kmeans(data, k, max_iterations=50, tolerance=1e-6, seed=0):
    """The Lloyd loop as it was before the lean rewrite."""
    data = np.asarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    if k >= n:
        centers = data[rng.integers(0, n, size=k)].copy()
        centers[:n] = data
        labels = assign_to_centers(data, centers)
        inertia = float(np.sum((data - centers[labels]) ** 2))
        return centers, labels, inertia, 0

    centers = _kmeans_plus_plus(data, k, rng)
    row_sq = np.sum(data**2, axis=1, keepdims=True)
    twice = 2.0 * data
    labels = _nearest(row_sq, twice, centers)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        counts = np.bincount(labels, minlength=k)
        empty = counts == 0
        new_centers = scatter_add_rows(labels, data, k) / np.maximum(counts, 1)[:, None]
        if empty.any():
            distances = np.sum((data - centers[labels]) ** 2, axis=1)
            new_centers[empty] = data[np.argmax(distances)]
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        labels = _nearest(row_sq, twice, centers)
        if shift < tolerance:
            break
    inertia = float(np.sum((data - centers[labels]) ** 2))
    return centers, labels, inertia, iteration


def assert_same_run(data, k, **kwargs):
    result = kmeans(data, k, **kwargs)
    centers, labels, inertia, iterations = reference_kmeans(data, k, **kwargs)
    np.testing.assert_array_equal(result.labels, labels)
    assert result.centers.tobytes() == centers.tobytes()
    assert result.inertia == inertia
    assert result.n_iterations == iterations
    return result


def duplicated_points(seed: int) -> np.ndarray:
    """Few distinct rows, many copies: Lloyd steps leave clusters empty."""
    rng = np.random.default_rng(seed)
    return np.repeat(rng.normal(size=(3, 4)), [20, 1, 1], axis=0)


CASES = {
    "darec-shape": lambda s: np.random.default_rng(s).normal(size=(64, 16)),
    "blobs": lambda s: np.concatenate(
        [c + 0.1 * np.random.default_rng(s + 1).normal(size=(25, 5)) for c in np.random.default_rng(s).normal(0, 4, (4, 5))]
    ),
    "one-column": lambda s: np.random.default_rng(s).normal(size=(40, 1)),
    "ties": lambda s: np.random.default_rng(s).integers(0, 3, size=(50, 2)).astype(float),
    "duplicates": duplicated_points,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("k", [1, 2, 4, 9])
@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_bitwise(case, k, seed):
    assert_same_run(CASES[case](seed), k, max_iterations=15, seed=seed)


@pytest.mark.parametrize("seed", range(6))
def test_empty_cluster_reseeding_matches(seed):
    # Many copies of three points and more centres than distinct points:
    # k-means++ falls back to random picks and Lloyd steps empty clusters.
    data = duplicated_points(seed)
    result = assert_same_run(data, 6, max_iterations=10, seed=seed)
    assert result.n_iterations >= 1


def test_empty_cluster_path_is_exercised():
    # Guard for the case above: the reference loop does meet an empty cluster.
    hits = 0
    for seed in range(6):
        data = duplicated_points(seed)
        rng = np.random.default_rng(seed)
        centers = _kmeans_plus_plus(data, 6, rng)
        labels = assign_to_centers(data, centers)
        hits += int((np.bincount(labels, minlength=6) == 0).any())
    assert hits > 0


@pytest.mark.parametrize("k,n", [(5, 5), (8, 5), (30, 4)])
def test_k_at_least_n_matches(k, n):
    data = np.random.default_rng(k).normal(size=(n, 3))
    assert_same_run(data, k, seed=3)


@pytest.mark.parametrize("seed", range(4))
def test_tolerance_stop_matches(seed):
    # A dense grid of tolerances puts the stop at every iteration of the run.
    data = np.random.default_rng(11 + seed).normal(size=(80, 6))
    stops = set()
    for tolerance in np.geomspace(1e-4, 2.0, 40):
        result = assert_same_run(data, 5, max_iterations=100, tolerance=tolerance, seed=seed)
        stops.add(result.n_iterations)
    assert len(stops) > 3 and max(stops) < 100

