"""Dependency-free metrics registry: counters, gauges and histograms.

The registry is the first half of the observability substrate (the second is
:mod:`repro.obs.tracing`).  Design constraints, in order:

* **zero cost when disabled** — the module-level :func:`get_registry` returns
  a shared :class:`NullRegistry` whose instruments are no-op singletons, so an
  uninstrumented process pays one attribute lookup and an empty method call
  per metric site, nothing else.  Components bind their instrument handles
  once at construction time (never per request), so the disabled path never
  touches a dict or a lock;
* **atomic-enough updates** — instrument updates are plain ``+=`` / ``=``
  under the GIL with no locking.  A concurrent increment can, in principle,
  lose a tick across a bytecode boundary; for operational counters that is an
  acceptable trade against taking a lock on the serving hot path.  *Series
  creation* (the registry maps) is fully lock-protected;
* **labeled series** — one metric name owns many label-sets
  (``serve.cache.hits{snapshot="ab12"}``), mirroring the Prometheus data
  model so the text exposition in :mod:`repro.obs.export` is a direct render;
* **snapshot API** — :meth:`MetricsRegistry.snapshot` returns a plain,
  JSON-serialisable description of every series, consumed by the JSONL and
  Prometheus exporters and by tests.

Enable with :func:`enable` (or ``REPRO_METRICS=1`` in the environment) *before*
constructing the components you want instrumented; they capture their handles
from the registry active at construction time.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "exponential_buckets",
    "fraction_over",
    "quantile_from_buckets",
    "enable",
    "disable",
    "enabled",
    "get_registry",
    "use_registry",
]


# --------------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------------- #
class Counter:
    """A monotonically increasing value (requests served, errors seen).

    ``inc`` with a negative amount raises: a counter that can go down is a
    :class:`Gauge`, and downstream rate() math silently breaks on decreases.
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for decreasing values")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, breaker state, table size)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    ``exponential_buckets(1e-6, 4.0, 10)`` spans one microsecond to ~0.26s in
    ten buckets — the shape latency distributions want, where linear buckets
    waste resolution at one end or the other.
    """
    if start <= 0:
        raise ValueError("start must be positive")
    if factor <= 1.0:
        raise ValueError("factor must be > 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    return tuple(start * factor**i for i in range(count))


#: Default histogram bounds: 1µs .. ~137s, doubling — wide enough for any
#: latency this codebase produces, 28 buckets (one cache line of counts).
DEFAULT_BUCKETS = exponential_buckets(1e-6, 2.0, 28)


def quantile_from_buckets(
    bounds: tuple[float, ...], counts, q: float
) -> float:
    """``q``-quantile (0..1) of a bucketed distribution.

    ``counts`` holds one per-bucket (non-cumulative) count per bound plus a
    trailing ``+Inf`` overflow count.  Interpolation inside the winning bucket
    is *geometric* when both edges are positive — the right shape for
    exponential buckets, where linear interpolation systematically overshoots
    low quantiles of wide buckets — and linear for the first bucket (whose
    lower edge is 0).  Overflow-bucket answers report the last finite bound: a
    floor, not a lie.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank and bucket_count:
            if index >= len(bounds):  # overflow bucket
                return bounds[-1]
            upper = bounds[index]
            lower = bounds[index - 1] if index > 0 else 0.0
            within = (rank - (cumulative - bucket_count)) / bucket_count
            if lower > 0.0 and upper > 0.0:
                return lower * (upper / lower) ** within
            return lower + (upper - lower) * within
    return bounds[-1]


def fraction_over(bounds: tuple[float, ...], counts, threshold: float) -> float:
    """Fraction of bucketed observations above ``threshold``.

    The SLO engine's latency primitive: ``p99 < 50ms`` is equivalently "at
    most 1% of requests exceed 50ms", and that bad-request fraction is what
    burn rates are computed from.  The bucket straddling the threshold is
    split geometrically (linearly for the zero-edged first bucket), matching
    :func:`quantile_from_buckets`.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    below = 0.0
    for index, bucket_count in enumerate(counts):
        if index >= len(bounds):
            break  # overflow bucket: entirely above any finite threshold
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
        else:
            break  # bounds ascend: this and every later bucket lie above
    return max(0.0, min(1.0, 1.0 - below / total))


class Histogram:
    """Exponential-bucket histogram with cumulative-count exposition.

    ``observe`` is one bisect over the (immutable) upper-bound tuple plus two
    adds — cheap enough for per-request recording.  Values above the last
    bound land in the implicit ``+Inf`` overflow bucket; ``quantile`` answers
    p50/p99 questions by linear interpolation inside the winning bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...] | None = None) -> None:
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one measurement."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0..1) from the bucket counts.

        Delegates to :func:`quantile_from_buckets`: geometric interpolation
        within the winning exponential bucket (linear for the zero-edged
        first bucket); overflow-bucket answers report the last finite bound —
        a floor, not a lie.
        """
        return quantile_from_buckets(self.bounds, self.bucket_counts, q)

    def fraction_over(self, threshold: float) -> float:
        """Fraction of recorded observations above ``threshold``."""
        return fraction_over(self.bounds, self.bucket_counts, threshold)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_KINDS = ("counter", "gauge", "histogram")


class _Family:
    """All series sharing one metric name (one per label-set)."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series: dict[tuple[tuple[str, str], ...], Counter | Gauge | Histogram] = {}


def _label_key(labels: dict | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Creates and owns labeled metric series; renders point-in-time snapshots.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair creates the series, later calls return the
    same instrument, and re-registering a name under a different kind raises
    (one name, one meaning).  Handles are meant to be captured once at
    component construction and updated lock-free afterwards.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- instrument creation ------------------------------------------------
    def _series(self, name: str, kind: str, help: str, labels: dict | None, factory):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {family.kind}, "
                    f"cannot re-register as a {kind}"
                )
            if help and not family.help:
                family.help = help
            key = _label_key(labels)
            instrument = family.series.get(key)
            if instrument is None:
                instrument = factory()
                family.series[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        return self._series(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        """Get or create the gauge series ``name{labels}``."""
        return self._series(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        """Get or create the histogram series ``name{labels}``.

        ``buckets`` (upper bounds, strictly increasing) only applies when the
        series is created; later calls return the existing series unchanged.
        """
        return self._series(name, "histogram", help, labels, lambda: Histogram(buckets))

    # -- introspection --------------------------------------------------------
    def snapshot(self) -> list[dict]:
        """A JSON-serialisable description of every series, sorted by name.

        Counters and gauges report ``{"labels", "value"}``; histograms report
        ``{"labels", "count", "sum", "buckets": [[upper_bound, cumulative]]}``
        with a trailing ``[null, total]`` entry for the ``+Inf`` bucket (JSON
        has no infinity).
        """
        with self._lock:
            families = [
                (family, list(family.series.items())) for family in self._families.values()
            ]
        out = []
        for family, series in sorted(families, key=lambda pair: pair[0].name):
            rendered = []
            for key, instrument in series:
                labels = dict(key)
                if family.kind == "histogram":
                    cumulative = 0
                    buckets = []
                    for bound, count in zip(
                        list(instrument.bounds) + [None], instrument.bucket_counts
                    ):
                        cumulative += count
                        buckets.append([bound, cumulative])
                    rendered.append(
                        {
                            "labels": labels,
                            "count": instrument.count,
                            "sum": instrument.sum,
                            "buckets": buckets,
                        }
                    )
                else:
                    rendered.append({"labels": labels, "value": instrument.value})
            out.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "series": rendered,
                }
            )
        return out

    def read_series(self) -> list:
        """Flat live view for samplers: ``(name, kind, label_key, instrument)``.

        The sampler's hot path: no per-call dict rendering, no sorting, no
        cumulative-bucket lists — the caller reads instrument state directly.
        The instruments are live, so readers see values concurrent updates
        produce (individual attribute reads are atomic under the GIL), the
        same consistency :meth:`snapshot` offers.
        """
        with self._lock:
            return [
                (family.name, family.kind, key, instrument)
                for family in self._families.values()
                for key, instrument in family.series.items()
            ]

    def get(self, name: str, labels: dict | None = None):
        """The existing instrument for ``name{labels}``, or ``None``."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.series.get(_label_key(labels))

    def value(self, name: str, labels: dict | None = None, default: float = 0.0) -> float:
        """Shorthand: the scalar value of a counter/gauge series (or ``default``)."""
        instrument = self.get(name, labels)
        if instrument is None or isinstance(instrument, Histogram):
            return default
        return instrument.value

    def __len__(self) -> int:
        with self._lock:
            return sum(len(f.series) for f in self._families.values())


# --------------------------------------------------------------------------- #
# The disabled path: no-op instruments behind the same API
# --------------------------------------------------------------------------- #
class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """The registry handed out while metrics are disabled.

    Every creation call returns a shared no-op instrument: recording methods
    are empty, nothing is allocated per call site, and ``snapshot()`` is
    empty.  Components instrumented against this registry cost one no-op
    method call per metric update — the "zero-cost-when-disabled" contract.
    """

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> list[dict]:
        return []

    def read_series(self) -> list:
        return []

    def get(self, name: str, labels: dict | None = None):
        return None

    def value(self, name: str, labels: dict | None = None, default: float = 0.0) -> float:
        return default

    def __len__(self) -> int:
        return 0


_NULL_REGISTRY = NullRegistry()

#: The active registry; ``None`` means metrics are disabled.
_ACTIVE: MetricsRegistry | None = None


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Turn metrics collection on and return the active registry.

    Passing a registry installs it; otherwise the previously active one is
    kept (so repeated ``enable()`` calls accumulate into one registry) or a
    fresh one is created.  Components capture their handles at construction:
    enable *before* building the services you want instrumented.
    """
    global _ACTIVE
    if registry is not None:
        _ACTIVE = registry
    elif _ACTIVE is None:
        _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable() -> None:
    """Turn metrics collection off; :func:`get_registry` returns no-ops again."""
    global _ACTIVE
    _ACTIVE = None


def enabled() -> bool:
    """Whether a live registry is installed."""
    return _ACTIVE is not None


def get_registry() -> MetricsRegistry | NullRegistry:
    """The active registry, or the shared no-op registry when disabled."""
    return _ACTIVE if _ACTIVE is not None else _NULL_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Scope a registry to a ``with`` block (test isolation helper).

    Yields the installed registry and restores the previous state — enabled
    or disabled — on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


if os.environ.get("REPRO_METRICS", "0") not in {"0", "", "false", "False"}:
    enable()
