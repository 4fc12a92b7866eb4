"""Ring-buffer TSDB: sampling, tiering, windowed queries, persistence."""

from __future__ import annotations

import io
import math

import pytest

from repro.obs.health import HealthEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    _Tier,
    TimeSeriesConfig,
    TimeSeriesDB,
    TSDB_SCHEMA,
)


class TestSampling:
    def test_sample_records_every_series(self, registry, tsdb, clock):
        registry.counter("c", "x").inc(3)
        registry.gauge("g", "x").set(1.5)
        registry.histogram("h", "x").observe(0.02)
        touched = tsdb.sample(registry)
        assert touched == 3
        assert len(tsdb) == 3
        assert tsdb.latest("c") == 3.0
        assert tsdb.latest("g") == 1.5
        assert tsdb.latest("h") == 1  # histogram "latest" is its count

    def test_labeled_series_are_distinct(self, registry, tsdb):
        registry.counter("c", "x", labels={"shard": "a"}).inc(1)
        registry.counter("c", "x", labels={"shard": "b"}).inc(5)
        tsdb.sample(registry)
        assert tsdb.latest("c", labels={"shard": "a"}) == 1.0
        assert tsdb.latest("c", labels={"shard": "b"}) == 5.0

    def test_missing_series_queries_are_safe(self, tsdb):
        assert tsdb.latest("nope", default=7.0) == 7.0
        assert tsdb.rate("nope", 60.0) == 0.0
        assert tsdb.increase("nope", 60.0) == 0.0
        assert tsdb.aggregate("nope", 60.0) is None
        assert tsdb.points("nope", 60.0) == []


class TestWindowedQueries:
    def _fill(self, registry, tsdb, clock, ticks=30, per_tick=5):
        counter = registry.counter("c", "x")
        gauge = registry.gauge("g", "x")
        for i in range(ticks):
            clock.advance(1.0)
            counter.inc(per_tick)
            gauge.set(float(i))
            tsdb.sample(registry)

    def test_rate_and_increase(self, registry, tsdb, clock):
        self._fill(registry, tsdb, clock)
        # 5 increments per second: a 10 s window holds an increase of 50.
        assert tsdb.increase("c", 10.0) == pytest.approx(50.0)
        assert tsdb.rate("c", 10.0) == pytest.approx(5.0)
        # The full-history window is bounded by the earliest retained point.
        assert tsdb.increase("c", 10_000.0) == pytest.approx(5.0 * 29)

    def test_counter_reset_clamps_to_zero(self, registry, tsdb, clock):
        counter = registry.counter("c", "x")
        counter.inc(100)
        clock.advance(1.0)
        tsdb.sample(registry)
        # Simulate a restart: a fresh registry whose counter restarts at 2.
        fresh = MetricsRegistry()
        fresh.counter("c", "x").inc(2)
        clock.advance(1.0)
        tsdb.sample(fresh)
        assert tsdb.increase("c", 60.0) == 0.0
        assert tsdb.rate("c", 60.0) == 0.0

    def test_gauge_aggregate(self, registry, tsdb, clock):
        self._fill(registry, tsdb, clock)
        agg = tsdb.aggregate("g", 10.0)
        assert agg["last"] == 29.0
        assert agg["max"] == 29.0
        assert agg["min"] <= 21.0
        assert 20.0 <= agg["avg"] <= 29.0

    def test_windowed_histogram_quantile_sees_only_the_window(
        self, registry, tsdb, clock
    ):
        hist = registry.histogram("lat", "x")
        # 20 s of fast traffic, then 10 s of slow traffic.
        for _ in range(20):
            clock.advance(1.0)
            for _ in range(10):
                hist.observe(0.001)
            tsdb.sample(registry)
        for _ in range(10):
            clock.advance(1.0)
            for _ in range(10):
                hist.observe(0.5)
            tsdb.sample(registry)
        recent_p50 = tsdb.quantile("lat", 0.5, 8.0)
        overall_p50 = tsdb.quantile("lat", 0.5, 10_000.0)
        assert recent_p50 > 0.1  # the recent window is all-slow
        assert overall_p50 < 0.01  # overall, fast observations dominate

    def test_fraction_over_returns_sample_count(self, registry, tsdb, clock):
        hist = registry.histogram("lat", "x")
        for i in range(10):
            clock.advance(1.0)
            hist.observe(0.001 if i < 5 else 0.5)
            tsdb.sample(registry)
        frac, samples = tsdb.fraction_over("lat", 0.1, 10_000.0)
        # The earliest retained point is the delta baseline, so its single
        # observation is excluded: 9 samples, 5 of them over the threshold.
        assert samples == 9
        assert 0.4 <= frac <= 0.7


class TestTiering:
    def test_old_windows_answer_from_coarser_tiers(self, registry, clock):
        config = TimeSeriesConfig(raw_capacity=10, tier_capacity=600)
        tsdb = TimeSeriesDB(config=config, clock=clock)
        counter = registry.counter("c", "x")
        for _ in range(300):
            clock.advance(1.0)
            counter.inc(2)
            tsdb.sample(registry)
        # Raw tier only holds 10 points, but a 200 s window still answers
        # (from the 10 s tier) with the correct overall rate.
        assert tsdb.rate("c", 200.0) == pytest.approx(2.0, rel=0.2)

    def test_memory_is_bounded(self, registry, clock):
        config = TimeSeriesConfig(raw_capacity=16, tier_capacity=16)
        tsdb = TimeSeriesDB(config=config, clock=clock)
        counter = registry.counter("c", "x")
        for _ in range(5000):
            clock.advance(1.0)
            counter.inc()
            tsdb.sample(registry)
        series = tsdb._series[("c", ())]
        for tier in series.tiers:
            assert len(tier.points) <= 16

    def test_bucket_extremes_match_builtin_min_max(self):
        """A bucket's min/max pick what ``min()``/``max()`` would, NaN and ties included."""
        values = [0.0, -0.0, 2.0, math.nan, -1.0, 2.0, math.inf, -math.inf, 0.5, math.nan, -0.0]
        for start in range(len(values)):
            stream = values[start:] + values[:start]
            tier = _Tier(resolution=100.0, capacity=4)
            low = high = stream[0]
            for ts, value in enumerate(stream):
                tier.add_scalar(float(ts), value)
                low, high = min(low, value), max(high, value)
                _, _, got_low, got_high, _, _ = tier._acc
                assert (repr(got_low), repr(got_high)) == (repr(low), repr(high)), stream[: ts + 1]


class TestPersistence:
    def test_save_load_roundtrip(self, registry, tsdb, clock, tmp_path):
        counter = registry.counter("c", "x")
        hist = registry.histogram("lat", "x")
        for _ in range(20):
            clock.advance(1.0)
            counter.inc(3)
            hist.observe(0.02)
            tsdb.sample(registry)
        path = tmp_path / "tsdb.jsonl"
        written = tsdb.save(path)
        assert written == 2
        loaded = TimeSeriesDB.load(path, clock=clock)
        assert len(loaded) == 2
        assert loaded.latest("c") == tsdb.latest("c")
        assert loaded.increase("c", 10.0) == tsdb.increase("c", 10.0)
        assert loaded.quantile("lat", 0.5, 10.0) == tsdb.quantile("lat", 0.5, 10.0)

    def test_load_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            TimeSeriesDB.load(empty)
        headerless = tmp_path / "bad.jsonl"
        headerless.write_text('{"name": "c"}\n')
        with pytest.raises(ValueError, match="meta header"):
            TimeSeriesDB.load(headerless)

    def test_save_stamps_schema(self, registry, tsdb, clock):
        registry.counter("c", "x").inc()
        clock.advance(1.0)
        tsdb.sample(registry)
        buffer = io.StringIO()
        tsdb.save(buffer)
        header = buffer.getvalue().splitlines()[0]
        assert f'"schema": {TSDB_SCHEMA}' in header


class TestSampler:
    def test_manual_ticks_with_fake_clock(self, registry, clock):
        registry.counter("c", "x").inc()
        engine = HealthEngine(registry=registry, clock=clock)
        clock.advance(1.0)
        engine.tick()
        assert len(engine.tsdb) == 1
        assert engine.tsdb.samples_taken == 1
        assert engine.tsdb.latest("c") == 1.0

    def test_background_thread_samples_and_stop_is_idempotent(self, registry):
        registry.counter("c", "x").inc()
        engine = HealthEngine(registry=registry, interval=0.01)
        tsdb = engine.tsdb
        with engine:
            import time

            deadline = time.time() + 2.0
            while tsdb.samples_taken < 3 and time.time() < deadline:
                time.sleep(0.01)
        assert tsdb.samples_taken >= 3
        before = tsdb.samples_taken
        engine.stop()  # second stop: no thread, no extra final tick
        assert tsdb.samples_taken == before

    def test_validation(self, tsdb):
        with pytest.raises(ValueError):
            HealthEngine(interval=0.0)
        with pytest.raises(ValueError):
            TimeSeriesConfig(raw_capacity=1)
        with pytest.raises(ValueError):
            TimeSeriesConfig(tier_resolutions=(10.0, 1.0))
