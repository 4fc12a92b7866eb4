"""Histogram quantile accuracy against known distributions.

The estimator interpolates geometrically inside exponential buckets, so its
error is bounded by one bucket: for every tested distribution and quantile,
the estimate must land within the bucket that contains the true quantile
(i.e. between that bucket's lower and upper bound).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    fraction_over,
    quantile_from_buckets,
)


def bracketing_bounds(value: float, bounds=DEFAULT_BUCKETS) -> tuple[float, float]:
    """(lower, upper) of the bucket a true value falls into."""
    lower = 0.0
    for upper in bounds:
        if value <= upper:
            return lower, upper
        lower = upper
    return bounds[-1], float("inf")


def filled_histogram(values) -> Histogram:
    hist = Histogram()
    for value in values:
        hist.observe(float(value))
    return hist


DISTRIBUTIONS = {
    "uniform": lambda rng: rng.uniform(0.001, 0.1, size=20_000),
    "lognormal": lambda rng: rng.lognormal(mean=-5.0, sigma=1.0, size=20_000),
    "exponential": lambda rng: rng.exponential(scale=0.01, size=20_000),
    "normal": lambda rng: rng.normal(0.03, 0.008, size=20_000).clip(1e-6),
}


class TestQuantileAccuracy:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_within_one_bucket_of_truth(self, name, q):
        rng = np.random.default_rng(7)
        values = DISTRIBUTIONS[name](rng)
        hist = filled_histogram(values)
        truth = float(np.quantile(values, q))
        lower, upper = bracketing_bounds(truth)
        estimate = hist.quantile(q)
        assert lower <= estimate <= upper, (
            f"{name} p{q * 100:g}: estimate {estimate:.6f} outside "
            f"[{lower:.6f}, {upper:.6f}] containing truth {truth:.6f}"
        )

    def test_geometric_interpolation_beats_bucket_edges(self):
        """Interpolation must do better than snapping to a bucket edge for a
        distribution concentrated inside one bucket."""
        rng = np.random.default_rng(3)
        values = rng.uniform(0.011, 0.024, size=50_000)  # inside (0.01, 0.025]
        hist = filled_histogram(values)
        estimate = hist.quantile(0.5)
        assert 0.011 < estimate < 0.024
        assert estimate != 0.025 and estimate != 0.01

    def test_extremes(self):
        hist = filled_histogram([0.02] * 100)
        lower, upper = bracketing_bounds(0.02)
        # q=0 returns the populated bucket's floor, q=1 stays inside it.
        assert hist.quantile(0.0) == pytest.approx(lower)
        assert lower <= hist.quantile(1.0) <= upper

    def test_bimodal_median_lands_on_a_populated_mode(self):
        """When the true median falls in the empty gap between two modes, the
        estimate snaps to a populated bucket adjacent to the gap — never to
        something outside the data's range."""
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [rng.normal(0.002, 0.0002, 10_000), rng.normal(0.08, 0.005, 10_000)]
        ).clip(1e-6)
        hist = filled_histogram(values)
        estimate = hist.quantile(0.5)
        assert 0.001 <= estimate <= 0.1

    def test_empty_histogram(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            filled_histogram([0.01]).quantile(1.5)

    def test_overflow_bucket_clamps_to_top_bound(self):
        hist = filled_histogram([1e6] * 10)
        assert hist.quantile(0.99) == DEFAULT_BUCKETS[-1]


class TestFractionOver:
    def test_split_distribution(self):
        values = [0.001] * 700 + [0.5] * 300
        hist = filled_histogram(values)
        frac = hist.fraction_over(0.1)
        assert frac == pytest.approx(0.3, abs=0.05)

    def test_threshold_above_everything(self):
        assert filled_histogram([0.001] * 100).fraction_over(10.0) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_threshold_below_everything(self):
        assert filled_histogram([0.5] * 100).fraction_over(1e-6) == pytest.approx(
            1.0, abs=0.01
        )

    def test_module_helpers_match_method(self):
        hist = filled_histogram([0.004, 0.02, 0.09, 0.3])
        counts = hist.bucket_counts
        assert quantile_from_buckets(hist.bounds, counts, 0.5) == hist.quantile(0.5)
        assert fraction_over(hist.bounds, counts, 0.05) == hist.fraction_over(0.05)

    def test_empty(self):
        assert Histogram().fraction_over(0.1) == 0.0

    def test_early_exit_matches_full_scan(self):
        """Stopping at the first bucket above the threshold changes no bit."""

        def full_scan(bounds, counts, threshold):
            total = sum(counts)
            if total == 0:
                return 0.0
            below = 0.0
            for index, bucket_count in enumerate(counts):
                if index >= len(bounds):
                    break
                upper = bounds[index]
                lower = bounds[index - 1] if index > 0 else 0.0
                if upper <= threshold:
                    below += bucket_count
                elif lower < threshold:
                    if lower > 0.0:
                        within = math.log(threshold / lower) / math.log(upper / lower)
                    else:
                        within = threshold / upper if upper > 0 else 0.0
                    below += bucket_count * max(0.0, min(1.0, within))
            return max(0.0, min(1.0, 1.0 - below / total))

        rng = np.random.default_rng(0)
        bounds = DEFAULT_BUCKETS
        thresholds = [*bounds, 0.0, -1.0, 1e-9, 1e9, math.inf, -math.inf, math.nan]
        for _ in range(50):
            counts = rng.integers(0, 50, size=len(bounds) + 1).tolist()
            for threshold in thresholds + rng.uniform(0.0, 2 * bounds[-1], 20).tolist():
                got = fraction_over(bounds, counts, threshold)
                assert repr(got) == repr(full_scan(bounds, counts, threshold)), threshold
