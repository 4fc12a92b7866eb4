"""K-means clustering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import KMeansResult, assign_to_centers, kmeans
from repro.cluster.kmeans import _kmeans_plus_plus


def blobs(k: int = 3, per_cluster: int = 30, spread: float = 0.2, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 5.0, size=(k, 4))
    points = np.concatenate(
        [centre + spread * rng.normal(size=(per_cluster, 4)) for centre in centres]
    )
    labels = np.repeat(np.arange(k), per_cluster)
    return points, labels


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        points, truth = blobs()
        result = kmeans(points, 3, seed=1)
        # Every predicted cluster should be dominated by a single true label.
        for cluster in range(3):
            members = truth[result.labels == cluster]
            assert len(members) > 0
            dominant = np.bincount(members).max()
            assert dominant / len(members) > 0.95

    def test_result_shapes(self):
        points, _ = blobs()
        result = kmeans(points, 4, seed=0)
        assert isinstance(result, KMeansResult)
        assert result.centers.shape == (4, points.shape[1])
        assert result.labels.shape == (len(points),)
        assert result.inertia >= 0

    def test_inertia_decreases_with_more_clusters(self):
        points, _ = blobs(k=4, per_cluster=25, seed=2)
        few = kmeans(points, 2, seed=0).inertia
        many = kmeans(points, 8, seed=0).inertia
        assert many < few

    def test_deterministic_given_seed(self):
        points, _ = blobs(seed=3)
        a = kmeans(points, 3, seed=7)
        b = kmeans(points, 3, seed=7)
        np.testing.assert_allclose(a.centers, b.centers)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_k_greater_than_points(self):
        points = np.random.default_rng(0).normal(size=(5, 3))
        result = kmeans(points, 10, seed=0)
        assert result.centers.shape == (10, 3)
        assert len(np.unique(result.labels)) <= 5

    def test_k_equal_to_points_gives_zero_inertia(self):
        points = np.random.default_rng(1).normal(size=(6, 2))
        result = kmeans(points, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_identical_points(self):
        points = np.ones((20, 3))
        result = kmeans(points, 3, seed=0)
        assert np.isfinite(result.centers).all()
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((5, 2)), 0)
        with pytest.raises(ValueError):
            kmeans(np.ones(5), 2)
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), 2)

    def test_single_cluster(self):
        points, _ = blobs()
        result = kmeans(points, 1, seed=0)
        np.testing.assert_allclose(result.centers[0], points.mean(axis=0), atol=1e-8)


class TestKMeansEdgeCases:
    """Degenerate inputs the IVF serving index must survive (see repro.serve)."""

    def test_k_equals_n_points(self):
        points = np.random.default_rng(2).normal(size=(7, 3))
        result = kmeans(points, 7, seed=0)
        assert result.centers.shape == (7, 3)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)
        # Every point is its own centre, so the assignment is a bijection.
        assert len(np.unique(result.labels)) == 7

    def test_k_far_exceeds_n_points(self):
        points = np.random.default_rng(3).normal(size=(4, 2))
        result = kmeans(points, 25, seed=1)
        assert result.centers.shape == (25, 2)
        assert np.isfinite(result.centers).all()
        assert result.labels.min() >= 0 and result.labels.max() < 25
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_all_identical_points_many_clusters(self):
        points = np.full((30, 4), 2.5)
        result = kmeans(points, 8, seed=0)
        assert np.isfinite(result.centers).all()
        np.testing.assert_allclose(result.centers, 2.5)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_duplicate_heavy_data_triggers_empty_cluster_reseed(self):
        # 28 copies of one point plus two distinct outliers with k=3: at least
        # one initial centre duplicates another, leaving an empty cluster that
        # the Lloyd loop must re-seed rather than emit NaNs.
        points = np.concatenate(
            [np.zeros((28, 2)), np.array([[10.0, 10.0]]), np.array([[-10.0, 4.0]])]
        )
        for seed in range(8):
            result = kmeans(points, 3, seed=seed)
            assert np.isfinite(result.centers).all()
            assert result.labels.shape == (30,)
            # The re-seeded solution must isolate the two outliers perfectly.
            assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_empty_cluster_reassignment_reduces_inertia(self):
        # Two tight, far-apart blobs; k=4 guarantees surplus centres that
        # would empty out without re-seeding at the farthest point.
        rng = np.random.default_rng(9)
        blob_a = rng.normal(0.0, 0.05, size=(20, 2))
        blob_b = rng.normal(0.0, 0.05, size=(20, 2)) + 100.0
        points = np.concatenate([blob_a, blob_b])
        result = kmeans(points, 4, seed=0)
        assert np.isfinite(result.centers).all()
        two = kmeans(points, 2, seed=0)
        assert result.inertia <= two.inertia + 1e-9
        # No centre may be stranded between the blobs.
        consistent = assign_to_centers(points, result.centers)
        np.testing.assert_array_equal(consistent, result.labels)

    def test_single_point(self):
        points = np.array([[1.0, 2.0, 3.0]])
        result = kmeans(points, 1, seed=0)
        np.testing.assert_allclose(result.centers[0], points[0])
        assert result.inertia == pytest.approx(0.0, abs=1e-18)


class TestAssignToCenters:
    def test_assigns_to_nearest(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        points = np.array([[1.0, 1.0], [9.0, 9.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(assign_to_centers(points, centers), [0, 1, 0])

    def test_consistent_with_kmeans_labels(self):
        points, _ = blobs(seed=5)
        result = kmeans(points, 3, seed=5)
        np.testing.assert_array_equal(assign_to_centers(points, result.centers), result.labels)


def reference_lloyd(data, k, max_iterations=50, tolerance=1e-6, seed=0):
    """The per-cluster Lloyd loop the vectorised step replaced (``k < n``).

    Returns the :class:`KMeansResult` and how many empty clusters it re-seeded.
    """
    rng = np.random.default_rng(seed)
    centers = _kmeans_plus_plus(data, k, rng)
    labels = assign_to_centers(data, centers)
    reseeded = 0
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        new_centers = centers.copy()
        for cluster in range(k):
            members = data[labels == cluster]
            if len(members):
                new_centers[cluster] = members.mean(axis=0)
            else:
                distances = np.sum((data - centers[labels]) ** 2, axis=1)
                new_centers[cluster] = data[np.argmax(distances)]
                reseeded += 1
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        labels = assign_to_centers(data, centers)
        if shift < tolerance:
            break
    inertia = float(np.sum((data - centers[labels]) ** 2))
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iterations=iteration), reseeded


def assert_same_result(got: KMeansResult, expected: KMeansResult) -> None:
    assert np.array_equal(got.centers, expected.centers)
    assert np.array_equal(got.labels, expected.labels)
    assert got.inertia == expected.inertia
    assert got.n_iterations == expected.n_iterations


class TestVectorisedLloydStep:
    """The bincount Lloyd step is bit-identical to the per-cluster loop."""

    def test_random_battery(self):
        rng = np.random.default_rng(2024)
        reseeded = 0
        for case in range(60):
            n = int(rng.integers(8, 200))
            d = int(rng.integers(2, 41))
            k = int(rng.integers(1, min(n - 1, 30) + 1))
            if case % 3 == 0:
                # A handful of distinct points repeated: k-means++ picks
                # duplicate seeds, so some clusters come up empty.
                distinct = rng.normal(size=(int(rng.integers(2, 6)), d))
                data = distinct[rng.integers(0, len(distinct), size=n)]
            else:
                data = rng.normal(size=(n, d))
            iterations = int(rng.integers(1, 30))
            expected, empty = reference_lloyd(data, k, max_iterations=iterations, seed=case)
            reseeded += empty
            assert_same_result(kmeans(data, k, max_iterations=iterations, seed=case), expected)
        assert reseeded > 0

    def test_empty_clusters_share_the_farthest_point(self):
        data = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 2.0]]), 10, axis=0)
        expected, empty = reference_lloyd(data, 6, seed=3)
        assert empty > 0
        assert_same_result(kmeans(data, 6, seed=3), expected)

    @pytest.mark.parametrize(
        "shape, k, iterations",
        [((64, 16), 4, 15), ((2240, 16), 47, 25)],
        ids=["darec", "ivf"],
    )
    def test_production_shapes(self, shape, k, iterations):
        data = np.random.default_rng(shape[0]).normal(size=shape)
        for seed in (0, 1):
            expected, _ = reference_lloyd(data, k, max_iterations=iterations, seed=seed)
            assert_same_result(kmeans(data, k, max_iterations=iterations, seed=seed), expected)
