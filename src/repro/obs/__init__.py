"""Observability substrate: metrics, tracing, exporters, per-op profiling.

Dependency-free (stdlib only) so every other subsystem —
:mod:`repro.serve`, :mod:`repro.stream`, :mod:`repro.reliability`,
:mod:`repro.orchestrate`, :mod:`repro.nn` — can import it without cycles.

Everything is **off by default and zero-cost when off**: :func:`get_registry`
hands out shared no-op instruments and :func:`span`/:func:`trace` return a
shared no-op context manager until you opt in::

    from repro import obs

    registry = obs.enable()            # or REPRO_METRICS=1 in the environment
    tracer = obs.enable_tracing()
    service = RecommendationService(snapshot, index=index)   # binds handles NOW

    ... serve traffic ...

    print(obs.render_prometheus(registry.snapshot()))
    print(tracer.flamegraph())

Components capture their instrument handles at construction time, so enable
metrics *before* building the objects you want instrumented.  The CLI
counterparts are ``repro metrics-dump`` and ``repro trace``.
"""

from .alerts import (
    ActionBus,
    Alert,
    AlertManager,
    AlertRule,
    breaker_subscriber,
    retrain_subscriber,
)
from .dashboard import budget_bar, render_dashboard, run_dashboard, sparkline
from .export import (
    METRICS_DUMP_SCHEMA,
    PeriodicExporter,
    read_metrics_jsonl,
    render_prometheus,
    write_metrics_jsonl,
)
from .health import DoctorReport, HealthEngine, bench_regressions, doctor_verdict
from .logging import JsonFormatter, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable,
    enable,
    enabled,
    exponential_buckets,
    fraction_over,
    get_registry,
    quantile_from_buckets,
    use_registry,
)
from .profile import OpProfiler, ProfileReport, ProfileRow
from .slo import SLO, SLOEngine, SLOStatus, default_serving_slos
from .timeseries import TimeSeriesConfig, TimeSeriesDB
from .tracing import (
    Span,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    flamegraph_from_spans,
    get_tracer,
    span,
    trace,
    tracing_enabled,
    use_tracer,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "exponential_buckets",
    "enable",
    "disable",
    "enabled",
    "get_registry",
    "use_registry",
    # tracing
    "Span",
    "Tracer",
    "span",
    "trace",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "get_tracer",
    "use_tracer",
    "flamegraph_from_spans",
    # exporters
    "render_prometheus",
    "write_metrics_jsonl",
    "read_metrics_jsonl",
    "PeriodicExporter",
    "METRICS_DUMP_SCHEMA",
    # profiling
    "OpProfiler",
    "ProfileReport",
    "ProfileRow",
    # quantile helpers + span context
    "quantile_from_buckets",
    "fraction_over",
    "current_span",
    # time-series history
    "TimeSeriesDB",
    "TimeSeriesConfig",
    # SLOs
    "SLO",
    "SLOStatus",
    "SLOEngine",
    "default_serving_slos",
    # alerting + action bus
    "Alert",
    "AlertRule",
    "AlertManager",
    "ActionBus",
    "retrain_subscriber",
    "breaker_subscriber",
    # structured logging
    "JsonFormatter",
    "configure_logging",
    "get_logger",
    # health engine + doctor
    "HealthEngine",
    "DoctorReport",
    "doctor_verdict",
    "bench_regressions",
    # dashboard
    "sparkline",
    "budget_bar",
    "render_dashboard",
    "run_dashboard",
]
