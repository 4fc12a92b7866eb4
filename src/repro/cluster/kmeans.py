"""K-Means clustering (k-means++ initialisation, Lloyd iterations).

Used by DaRec's local structure alignment (Eq. 6 of the paper) to obtain the
preference centres of the shared representations, by the analysis module to
quantify the cluster structure shown in Fig. 6, and by the serving IVF index
to train its cells.  scikit-learn is not available offline, hence this
self-contained implementation.

Each Lloyd step is vectorised: the per-cluster sums are one flattened
``np.bincount`` (the row scatter of
:func:`repro.nn.primitives.scatter_add_rows`: element ``j`` of a row in
cluster ``c`` lands in bin ``c * d + j``, each cluster's members added in row
order) divided by ``np.bincount(labels)``.  For ``d >= 2`` columns that is the
same sequence of additions and the same division as ``np.mean`` over each
cluster's members; for one column ``np.mean`` sums pairwise, so 1-D centres
can differ from it in the last bits.  Every empty cluster is re-seeded at the
point farthest from its current centre.  Row norms, ``2 * data``, the
flattened data and the column offsets are computed once per call, not once
per iteration, and the stopping test takes one square root, of the largest
squared centre shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["KMeansResult", "kmeans", "assign_to_centers"]


@dataclass
class KMeansResult:
    """Outcome of a k-means run."""

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iterations: int


def _kmeans_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread the initial centres proportionally to distance."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    first = rng.integers(0, n)
    centers[0] = data[first]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-18:
            # All points coincide with existing centres; fall back to random picks.
            centers[index] = data[rng.integers(0, n)]
            continue
        # What ``rng.choice(n, p=closest_sq / total)`` runs, minus its checks of ``p``.
        cdf = (closest_sq / total).cumsum()
        cdf /= cdf[-1]
        centers[index] = data[cdf.searchsorted(rng.random(), side="right")]
        distances = ((data - centers[index]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distances)
    return centers


def assign_to_centers(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Return the index of the nearest centre (squared Euclidean) for every row."""
    return _nearest(np.sum(data**2, axis=1, keepdims=True), 2.0 * data, centers)


def _nearest(row_sq: np.ndarray, twice: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """:func:`assign_to_centers` given the row norms and ``2 * data``."""
    distances = row_sq - twice @ centers.T + (centers * centers).sum(axis=1)
    return distances.argmin(axis=1)


def kmeans(
    data: np.ndarray,
    k: int,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> KMeansResult:
    """Cluster ``data`` into ``k`` groups.

    When ``k`` exceeds the number of points, the surplus centres are duplicates
    of randomly chosen points so that downstream code always receives exactly
    ``k`` centres (the paper sweeps K up to 100 on small sub-samples).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D array")
    if k <= 0:
        raise ValueError("k must be positive")
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty dataset")
    if k >= n:
        centers = data[rng.integers(0, n, size=k)].copy()
        centers[:n] = data
        labels = assign_to_centers(data, centers)
        inertia = float(np.sum((data - centers[labels]) ** 2))
        return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iterations=0)

    centers = _kmeans_plus_plus(data, k, rng)
    row_sq = np.sum(data**2, axis=1, keepdims=True)
    twice = 2.0 * data
    d = data.shape[1]
    flat, columns = data.ravel(), np.arange(d)
    labels = _nearest(row_sq, twice, centers)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount((labels[:, None] * d + columns).ravel(), weights=flat, minlength=k * d)
        new_centers = sums.reshape(k, d) / np.maximum(counts, 1)[:, None]
        if not counts.all():
            # Re-seed empty clusters at the point farthest from its centre.
            distances = np.sum((data - centers[labels]) ** 2, axis=1)
            new_centers[counts == 0] = data[np.argmax(distances)]
        # The largest row norm of the move: sqrt is monotone, so one sqrt of
        # the largest squared norm is the same float.
        moved = new_centers - centers
        shift = math.sqrt((moved * moved).sum(axis=1).max())
        centers = new_centers
        labels = _nearest(row_sq, twice, centers)
        if shift < tolerance:
            break
    inertia = float(np.sum((data - centers[labels]) ** 2))
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iterations=iteration)
