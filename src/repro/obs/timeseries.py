"""Ring-buffer time-series database over the metrics registry.

PR 8's registry answers "what is the value *now*"; this module adds *history*
— the substrate the SLO engine, burn-rate alerts and the dashboard all query.
Design constraints, in order:

* **dependency-free and bounded** — every series is a set of fixed-capacity
  ring buffers (``collections.deque``), so a sampler left running for a week
  uses exactly as much memory as one left running for an hour;
* **tiered downsampling** — each series keeps a raw tier at the sampling
  cadence plus aggregated tiers at 1s / 10s / 1m resolution.  Raw points feed
  every tier's accumulator directly; when a tier bucket closes its aggregate
  (first/last/min/max/sum/count) is sealed into that tier's ring.  Windowed
  queries pick the finest tier that still covers the window, so recent
  questions get raw resolution and old questions get cheap coarse answers;
* **cumulative-aware queries** — counters and histogram counts are stored as
  the cumulative values the registry exposes; ``rate``/``increase`` and
  windowed quantiles are *deltas* between the window edges, so a restart
  (cumulative reset) clamps to zero instead of going negative;
* **JSONL persistence** — :meth:`TimeSeriesDB.save` / :meth:`TimeSeriesDB.load`
  round-trip the full tier structure, so history survives restarts and the
  ``repro doctor`` / ``repro dashboard`` CLIs can analyse a run offline.

:class:`MetricsSampler` drives :meth:`TimeSeriesDB.sample` on a daemon thread
at a configurable cadence; tests (and anything needing determinism) call
``sample(now=...)`` directly with an injected clock.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from itertools import accumulate
from dataclasses import dataclass
from pathlib import Path

from .metrics import _label_key, fraction_over, get_registry, quantile_from_buckets

__all__ = [
    "MetricsSampler",
    "SeriesKey",
    "TimeSeriesConfig",
    "TimeSeriesDB",
    "TSDB_SCHEMA",
]

#: Schema version stamped into every TSDB JSONL dump's meta header.
TSDB_SCHEMA = 1


@dataclass(frozen=True)
class TimeSeriesConfig:
    """Capacity/resolution knobs shared by every series in one DB.

    Defaults keep ~10 minutes of raw points at a 1s cadence, ~10 minutes at
    1s, ~100 minutes at 10s and ~10 hours at 1m — about 2400 points per
    scalar series, a few hundred KB for a fully instrumented service.
    """

    raw_capacity: int = 600
    tier_resolutions: tuple[float, ...] = (1.0, 10.0, 60.0)
    tier_capacity: int = 600

    def __post_init__(self) -> None:
        if self.raw_capacity < 2:
            raise ValueError("raw_capacity must be at least 2")
        if self.tier_capacity < 2:
            raise ValueError("tier_capacity must be at least 2")
        if any(r <= 0 for r in self.tier_resolutions):
            raise ValueError("tier resolutions must be positive")
        if any(
            b <= a for a, b in zip(self.tier_resolutions, self.tier_resolutions[1:])
        ):
            raise ValueError("tier resolutions must be strictly increasing")


#: ``(name, sorted-label-items)`` — the identity of one stored series.
SeriesKey = tuple


# --------------------------------------------------------------------------- #
# Points and tiers
# --------------------------------------------------------------------------- #
# Scalar points are plain lists [ts, last, min, max, sum, count] (JSON-ready,
# compact); histogram points are [ts, count, sum, [cumulative bucket counts]].
_TS, _LAST, _MIN, _MAX, _SUM, _COUNT = range(6)


class _Tier:
    """One resolution level of a series: a ring plus an open accumulator.

    ``resolution=None`` is the raw tier (every sample is its own point);
    otherwise samples accumulate into ``floor(ts / resolution)`` buckets and a
    bucket's aggregate is sealed into the ring when a later sample opens the
    next bucket.
    """

    __slots__ = ("resolution", "points", "_bucket", "_acc")

    def __init__(self, resolution: float | None, capacity: int) -> None:
        self.resolution = resolution
        self.points: deque = deque(maxlen=capacity)
        self._bucket: int | None = None
        self._acc: list | None = None

    def add_scalar(self, ts: float, value: float) -> None:
        if self.resolution is None:
            self.points.append([ts, value, value, value, value, 1])
            return
        bucket = int(ts // self.resolution)
        if bucket != self._bucket:
            self.flush()
            self._bucket = bucket
            self._acc = [ts, value, value, value, value, 1]
        else:
            acc = self._acc
            acc[_TS] = ts
            acc[_LAST] = value
            acc[_MIN] = min(acc[_MIN], value)
            acc[_MAX] = max(acc[_MAX], value)
            acc[_SUM] += value
            acc[_COUNT] += 1

    def add_hist(self, ts: float, count: int, total: float, buckets: list) -> None:
        # Histogram samples are cumulative: the freshest point in a bucket
        # carries everything the earlier ones did, so "last wins" is exact.
        point = [ts, count, total, buckets]
        if self.resolution is None:
            self.points.append(point)
            return
        bucket = int(ts // self.resolution)
        if bucket != self._bucket:
            self.flush()
            self._bucket = bucket
        self._acc = point

    def flush(self) -> None:
        """Seal the open accumulator (if any) into the ring."""
        if self._acc is not None:
            self.points.append(self._acc)
            self._acc = None
            self._bucket = None

    def visible(self) -> list:
        """Ring points plus the open accumulator (freshest data included)."""
        if self._acc is None:
            return list(self.points)
        return list(self.points) + [self._acc]

    def newest(self):
        """The freshest visible point without copying the ring."""
        if self._acc is not None:
            return self._acc
        return self.points[-1] if self.points else None

    def points_since(self, start: float) -> list:
        """Visible points with ``ts >= start``, oldest first.

        Walks the ring from the newest end and stops at the first older
        point — points are appended chronologically, so the prefix that
        falls outside the window is never touched.  This is the hot path of
        every windowed query; copying the whole ring per query is what made
        a per-batch health tick cost ~8% of serving throughput.
        """
        out = []
        if self._acc is not None and self._acc[_TS] >= start:
            out.append(self._acc)
        for point in reversed(self.points):
            if point[_TS] < start:
                break
            out.append(point)
        out.reverse()
        return out

    def span_start(self) -> float | None:
        if self.points:
            return self.points[0][_TS]
        if self._acc is not None:
            return self._acc[_TS]
        return None


class _Series:
    """All tiers of one ``name{labels}`` series."""

    __slots__ = ("name", "labels", "kind", "bounds", "tiers")

    def __init__(
        self,
        name: str,
        labels: dict,
        kind: str,
        config: TimeSeriesConfig,
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.bounds = bounds
        self.tiers = [_Tier(None, config.raw_capacity)] + [
            _Tier(res, config.tier_capacity) for res in config.tier_resolutions
        ]

    def add_scalar(self, ts: float, value: float) -> None:
        for tier in self.tiers:
            tier.add_scalar(ts, value)

    def add_hist(self, ts: float, count: int, total: float, buckets: list) -> None:
        for tier in self.tiers:
            tier.add_hist(ts, count, total, buckets)

    def select(self, start: float) -> list:
        """Points covering ``[start, now]`` from the finest adequate tier.

        The raw tier answers when its retained span reaches back to ``start``;
        otherwise successively coarser tiers are tried.  When no tier covers
        the whole window, the tier reaching furthest back wins (finest on
        ties) — better a partial fine answer than none.
        """
        best: tuple[float, _Tier] | None = None
        for tier in self.tiers:
            span_start = tier.span_start()
            if span_start is None:
                continue
            if span_start <= start:
                return tier.points_since(start)
            if best is None or span_start < best[0]:
                best = (span_start, tier)
        if best is None:
            return []
        return best[1].points_since(start)

    def at_or_before(self, ts: float):
        """The freshest point with timestamp <= ``ts`` (window baseline)."""
        best = None
        for tier in self.tiers:
            # O(1) reject: if even the oldest retained point is newer than
            # ``ts``, the reverse walk below would scan the whole ring just to
            # find nothing — the common case when the query window is longer
            # than the retained span.
            span_start = tier.span_start()
            if span_start is None or span_start > ts:
                continue
            acc = tier._acc
            candidate = acc if acc is not None and acc[_TS] <= ts else None
            if candidate is None:
                for point in reversed(tier.points):
                    if point[_TS] <= ts:
                        candidate = point
                        break
            if candidate is not None and (best is None or candidate[_TS] > best[_TS]):
                best = candidate
        return best

    def latest(self):
        for tier in self.tiers:
            newest = tier.newest()
            if newest is not None:
                return newest
        return None

    def oldest(self):
        """The earliest retained point across tiers (window-baseline fallback).

        Ties go to the finest tier, matching :meth:`select`'s
        furthest-back-finest-on-ties choice.
        """
        best = None
        for tier in self.tiers:
            if tier.points:
                candidate = tier.points[0]
            elif tier._acc is not None:
                candidate = tier._acc
            else:
                continue
            if best is None or candidate[_TS] < best[_TS]:
                best = candidate
        return best


# --------------------------------------------------------------------------- #
# The database
# --------------------------------------------------------------------------- #
class TimeSeriesDB:
    """Sampled metric history with windowed queries and JSONL persistence."""

    def __init__(
        self,
        config: TimeSeriesConfig | None = None,
        clock=time.time,
    ) -> None:
        self.config = config or TimeSeriesConfig()
        self._clock = clock
        self._series: dict[SeriesKey, _Series] = {}
        self._lock = threading.Lock()
        self.samples_taken = 0

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def sample(self, registry=None, now: float | None = None) -> int:
        """Append one point per live registry series; returns series touched.

        ``registry`` defaults to the active one; ``now`` defaults to the DB
        clock (injectable for deterministic tests).  Registries exposing the
        flat ``read_series()`` view are sampled through it — instrument
        state is read directly, skipping :meth:`snapshot`'s per-call dict
        rendering (the sampler may run once per served batch; its cost is
        serving overhead).  Foreign registry objects without ``read_series``
        fall back to the ``snapshot()`` exposition format.
        """
        registry = registry if registry is not None else get_registry()
        ts = self._clock() if now is None else float(now)
        reader = getattr(registry, "read_series", None)
        touched = 0
        if reader is not None:
            with self._lock:
                for name, kind, label_key, instrument in reader():
                    key = (name, label_key)
                    series = self._series.get(key)
                    if kind == "histogram":
                        if series is None:
                            series = _Series(
                                name, dict(label_key), kind, self.config,
                                instrument.bounds,
                            )
                            self._series[key] = series
                        series.add_hist(
                            ts,
                            instrument.count,
                            instrument.sum,
                            list(accumulate(instrument.bucket_counts)),
                        )
                    else:
                        if series is None:
                            series = _Series(name, dict(label_key), kind, self.config)
                            self._series[key] = series
                        series.add_scalar(ts, instrument.value)
                    touched += 1
                self.samples_taken += 1
            return touched
        snapshot = registry.snapshot()
        with self._lock:
            for family in snapshot:
                kind = family["kind"]
                for rendered in family["series"]:
                    labels = rendered.get("labels", {})
                    key = (family["name"], _label_key(labels))
                    series = self._series.get(key)
                    if kind == "histogram":
                        bounds = tuple(
                            b for b, _ in rendered["buckets"] if b is not None
                        )
                        if series is None:
                            series = _Series(
                                family["name"], dict(labels), kind, self.config, bounds
                            )
                            self._series[key] = series
                        cumulative = [c for _, c in rendered["buckets"]]
                        series.add_hist(
                            ts, rendered["count"], rendered["sum"], cumulative
                        )
                    else:
                        if series is None:
                            series = _Series(
                                family["name"], dict(labels), kind, self.config
                            )
                            self._series[key] = series
                        series.add_scalar(ts, rendered["value"])
                    touched += 1
            self.samples_taken += 1
        return touched

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def series(self) -> list[dict]:
        """``{"name", "labels", "kind"}`` for every stored series."""
        with self._lock:
            return [
                {"name": s.name, "labels": dict(s.labels), "kind": s.kind}
                for s in self._series.values()
            ]

    def _get(self, name: str, labels: dict | None) -> _Series | None:
        return self._series.get((name, _label_key(labels)))

    def last_timestamp(self) -> float | None:
        """The freshest sample timestamp across all series (offline "now")."""
        with self._lock:
            best = None
            for series in self._series.values():
                latest = series.latest()
                if latest is not None and (best is None or latest[_TS] > best):
                    best = latest[_TS]
            return best

    # ------------------------------------------------------------------ #
    # Windowed queries
    # ------------------------------------------------------------------ #
    def _now(self, now: float | None) -> float:
        return self._clock() if now is None else float(now)

    def points(
        self,
        name: str,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> list[tuple[float, float]]:
        """``(ts, value)`` pairs in the window (scalar series only)."""
        end = self._now(now)
        with self._lock:
            series = self._get(name, labels)
            if series is None:
                return []
            if series.kind == "histogram":
                return [(p[_TS], p[1]) for p in series.select(end - window)]
            return [(p[_TS], p[_LAST]) for p in series.select(end - window)]

    def latest(
        self, name: str, labels: dict | None = None, default: float = 0.0
    ) -> float:
        """The most recent scalar value (or histogram count)."""
        with self._lock:
            series = self._get(name, labels)
            point = series.latest() if series is not None else None
            if point is None:
                return default
            return point[1]

    def aggregate(
        self,
        name: str,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> dict | None:
        """min/max/avg/last over the window (gauges; scalar series only)."""
        end = self._now(now)
        with self._lock:
            series = self._get(name, labels)
            if series is None or series.kind == "histogram":
                return None
            points = series.select(end - window)
        if not points:
            return None
        total = sum(p[_SUM] for p in points)
        count = sum(p[_COUNT] for p in points)
        return {
            "min": min(p[_MIN] for p in points),
            "max": max(p[_MAX] for p in points),
            "avg": total / count if count else 0.0,
            "last": points[-1][_LAST],
            "points": len(points),
        }

    def _window_edges(self, series: _Series, start: float):
        """(baseline, end) points bracketing a window on cumulative data.

        The baseline is the freshest point at-or-before the window start (so
        the delta covers the whole window, not just the sampled interior);
        with no point that old, the earliest retained point is used.
        """
        end_point = series.latest()
        if end_point is None:
            return None, None
        base = series.at_or_before(start)
        if base is None:
            # Every retained point is newer than the window start (short run,
            # long window): the oldest point is the baseline.  O(#tiers) —
            # materialising the whole window via select() here made per-tick
            # cost grow with every accumulated sample.
            base = series.oldest() or end_point
        return base, end_point

    def increase(
        self,
        name: str,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> float:
        """Cumulative increase of a counter (or histogram count) over the
        window, clamped at 0 so a process restart never yields negatives."""
        end = self._now(now)
        with self._lock:
            series = self._get(name, labels)
            if series is None:
                return 0.0
            base, last = self._window_edges(series, end - window)
        if base is None or base is last:
            return 0.0
        return max(0.0, last[1] - base[1])

    def rate(
        self,
        name: str,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> float:
        """Per-second increase of a counter over the window."""
        end = self._now(now)
        with self._lock:
            series = self._get(name, labels)
            if series is None:
                return 0.0
            base, last = self._window_edges(series, end - window)
        if base is None or base is last:
            return 0.0
        elapsed = last[_TS] - base[_TS]
        if elapsed <= 0:
            return 0.0
        return max(0.0, last[1] - base[1]) / elapsed

    def _hist_delta(self, name: str, window: float, labels, now):
        """(delta per-bucket counts, bounds, delta count, delta sum)."""
        end = self._now(now)
        with self._lock:
            series = self._get(name, labels)
            if series is None or series.kind != "histogram":
                return None
            base, last = self._window_edges(series, end - window)
        if base is None:
            return None
        bounds = series.bounds
        if base is last:
            cumulative = list(last[3])
            count, total = last[1], last[2]
        else:
            cumulative = [b - a for a, b in zip(base[3], last[3])]
            count, total = last[1] - base[1], last[2] - base[2]
        if count <= 0 or any(c < 0 for c in cumulative):
            # Restart (cumulative reset) inside the window: fall back to the
            # end point's full distribution rather than reporting garbage.
            cumulative = list(last[3])
            count, total = last[1], last[2]
        per_bucket = [cumulative[0]] + [
            b - a for a, b in zip(cumulative, cumulative[1:])
        ]
        return per_bucket, bounds, count, total

    def quantile(
        self,
        name: str,
        q: float,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> float:
        """Windowed ``q``-quantile of a histogram series (bucket deltas)."""
        delta = self._hist_delta(name, window, labels, now)
        if delta is None:
            return 0.0
        per_bucket, bounds, _, _ = delta
        return quantile_from_buckets(bounds, per_bucket, q)

    def fraction_over(
        self,
        name: str,
        threshold: float,
        window: float,
        labels: dict | None = None,
        now: float | None = None,
    ) -> tuple[float, int]:
        """(fraction of windowed observations above ``threshold``, samples)."""
        delta = self._hist_delta(name, window, labels, now)
        if delta is None:
            return 0.0, 0
        per_bucket, bounds, count, _ = delta
        return fraction_over(bounds, per_bucket, threshold), int(count)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, destination) -> int:
        """Write the DB as JSONL (meta header + one line per series)."""
        with self._lock:
            rows = []
            for series in self._series.values():
                rows.append(
                    {
                        "name": series.name,
                        "labels": dict(series.labels),
                        "kind": series.kind,
                        "bounds": list(series.bounds) if series.bounds else None,
                        "tiers": [
                            {
                                "resolution": tier.resolution,
                                "points": tier.visible(),
                            }
                            for tier in series.tiers
                        ],
                    }
                )
        header = {
            "kind": "meta",
            "schema": TSDB_SCHEMA,
            "ts": self._clock(),
            "config": {
                "raw_capacity": self.config.raw_capacity,
                "tier_resolutions": list(self.config.tier_resolutions),
                "tier_capacity": self.config.tier_capacity,
            },
        }
        if hasattr(destination, "write"):
            handle, close = destination, False
        else:
            handle, close = open(Path(destination), "w"), True
        try:
            handle.write(json.dumps(header) + "\n")
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        finally:
            if close:
                handle.close()
        return len(rows)

    @classmethod
    def load(cls, source, clock=time.time) -> "TimeSeriesDB":
        """Rebuild a DB from :meth:`save` output (history survives restarts)."""
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text()
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty TSDB dump")
        header = json.loads(lines[0])
        if header.get("kind") != "meta":
            raise ValueError("TSDB dump missing meta header line")
        config = header.get("config", {})
        db = cls(
            TimeSeriesConfig(
                raw_capacity=int(config.get("raw_capacity", 600)),
                tier_resolutions=tuple(config.get("tier_resolutions", (1.0, 10.0, 60.0))),
                tier_capacity=int(config.get("tier_capacity", 600)),
            ),
            clock=clock,
        )
        for line in lines[1:]:
            row = json.loads(line)
            bounds = tuple(row["bounds"]) if row.get("bounds") else None
            series = _Series(row["name"], row["labels"], row["kind"], db.config, bounds)
            for tier, stored in zip(series.tiers, row["tiers"]):
                for point in stored["points"]:
                    tier.points.append(point)
            db._series[(row["name"], _label_key(row["labels"]))] = series
        return db


# --------------------------------------------------------------------------- #
# Background sampler
# --------------------------------------------------------------------------- #
class MetricsSampler:
    """Daemon thread sampling the registry into a DB every ``interval``s.

    ``tick()`` is the single-step entry point the thread loops over; tests
    call it directly with a fake ``now`` and never start the thread.  ``stop``
    is idempotent and takes one final sample so the last partial interval is
    never lost.
    """

    def __init__(
        self,
        tsdb: TimeSeriesDB,
        registry=None,
        interval: float = 1.0,
        clock=time.time,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.tsdb = tsdb
        self.interval = interval
        self._registry = registry
        self._clock = clock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.ticks = 0

    def tick(self, now: float | None = None) -> int:
        registry = self._registry if self._registry is not None else get_registry()
        touched = self.tsdb.sample(registry, now=now)
        self.ticks += 1
        return touched

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def start(self) -> "MetricsSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.tick()

    def __enter__(self) -> "MetricsSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
