"""The health engine: one object that samples, evaluates, alerts, and acts.

:class:`HealthEngine` composes the tentpole pieces —
:class:`~repro.obs.timeseries.TimeSeriesDB` +
:class:`~repro.obs.timeseries.MetricsSampler` (history),
:class:`~repro.obs.slo.SLOEngine` (burn rates) and
:class:`~repro.obs.alerts.AlertManager` (damped alerts on an action bus) —
behind a single ``tick()``: sample the registry, evaluate every objective,
advance every alert state machine, publish transitions.  Run it on its
background thread in a service, or drive ``tick(now=...)`` manually in tests
with a fake clock.

:func:`doctor_verdict` is the CI face of the same machinery: it folds SLO
statuses, alert states and (optionally) benchmark-regression warnings into a
three-level verdict with a process exit code —

* ``0`` healthy — nothing burning, nothing firing;
* ``1`` degraded — fast-window burn without slow-window confirmation, an
  exhausted error budget, or a benchmark regression: worth a look, not a page;
* ``2`` firing — an alert is firing or an SLO is breaching on both windows.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .alerts import FIRING, ActionBus, AlertManager, AlertRule
from .slo import SLO, SLOEngine, SLOStatus, default_serving_slos
from .timeseries import MetricsSampler, TimeSeriesConfig, TimeSeriesDB

__all__ = [
    "DoctorReport",
    "HealthEngine",
    "bench_regressions",
    "check_regression",
    "doctor_from_dir",
    "doctor_verdict",
    "infer_direction",
]


class HealthEngine:
    """Sampling + SLO evaluation + alerting behind one ``tick()``.

    ``log_dir`` (optional) makes the engine durable: the alert manager
    appends transitions to ``<log_dir>/alerts.jsonl`` as they happen (and
    replays it on construction for restart dedupe), and :meth:`save` dumps
    the TSDB and SLO statuses next to it.
    """

    def __init__(
        self,
        registry=None,
        slos: list[SLO] | None = None,
        rules: list[AlertRule] | None = None,
        config: TimeSeriesConfig | None = None,
        interval: float = 1.0,
        clock=time.time,
        log_dir=None,
        for_duration: float = 0.0,
        resolve_duration: float = 30.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._clock = clock
        self.log_dir = Path(log_dir) if log_dir is not None else None
        if self.log_dir is not None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
        self.tsdb = TimeSeriesDB(config=config, clock=clock)
        self.sampler = MetricsSampler(
            self.tsdb, registry=registry, interval=interval, clock=clock
        )
        self.slo_engine = SLOEngine(
            self.tsdb,
            slos if slos is not None else default_serving_slos(),
            clock=clock,
        )
        self.alerts = AlertManager(
            engine=self.slo_engine,
            rules=rules,
            log_path=(self.log_dir / "alerts.jsonl") if self.log_dir else None,
            clock=clock,
            default_for_duration=for_duration,
            default_resolve_duration=resolve_duration,
        )
        self.last_statuses: list[SLOStatus] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def bus(self) -> ActionBus:
        return self.alerts.bus

    def subscribe(self, handler, categories=None) -> None:
        """Register an action-bus subscriber (see :class:`ActionBus`)."""
        self.bus.subscribe(handler, categories=categories)

    def tick(self, now: float | None = None) -> list[SLOStatus]:
        """One health cycle: sample → evaluate → alert.  Returns statuses."""
        ts = self._clock() if now is None else float(now)
        self.sampler.tick(now=ts)
        self.last_statuses = self.alerts.evaluate(now=ts)
        return self.last_statuses

    # ------------------------------------------------------------------ #
    # Background operation
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def start(self) -> "HealthEngine":
        if self._thread is not None:
            raise RuntimeError("health engine already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-health-engine", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Idempotent; takes one final tick so the last interval is covered."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.tick()

    def __enter__(self) -> "HealthEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, directory=None) -> Path:
        """Dump ``tsdb.jsonl`` + ``slos.json`` into ``directory`` (defaults
        to ``log_dir``); the alert log is already there, written live."""
        target = Path(directory) if directory is not None else self.log_dir
        if target is None:
            raise ValueError("no directory given and engine has no log_dir")
        target.mkdir(parents=True, exist_ok=True)
        self.tsdb.save(target / "tsdb.jsonl")
        payload = {
            "statuses": [status.as_dict() for status in self.last_statuses],
            "alerts": [alert.as_dict() for alert in self.alerts.alerts()],
        }
        (target / "slos.json").write_text(json.dumps(payload, indent=2) + "\n")
        return target


# --------------------------------------------------------------------------- #
# Benchmark-trajectory regression check (doctor --bench)
# --------------------------------------------------------------------------- #
def infer_direction(metric: str) -> str:
    """``"lower"`` or ``"higher"`` — which way is better, from the name.

    Time-ish metrics (latency, seconds, ``_ms`` suffixes, overhead ratios)
    regress upward; throughput-ish metrics (q/s, events/s, recall) regress
    downward.  The ``_ms`` and ``qps`` checks run first because compound
    names inherit their parent's tokens (``epoch_speedup_eager_ms`` is a
    time despite "speedup"; ``serving_overhead_ratio_disabled_qps`` is a
    throughput despite "overhead").
    """
    name = metric.lower()
    if "_ms" in name:
        return "lower"
    if "qps" in name or "per_s" in name:
        return "higher"
    for token in ("latency", "seconds", "overhead", "time", "ratio_p"):
        if token in name:
            return "lower"
    return "higher"


def check_regression(
    history: list,
    metric: str,
    tolerance: float = 0.15,
    direction: str | None = None,
    window: int = 5,
) -> dict | None:
    """Compare ``history``'s newest ``metric`` row against its trailing median.

    ``history`` is a loaded ``BENCH_*.json`` list.  The newest measurement is
    checked against the median of up to ``window`` immediately preceding
    measurement rows (rows carrying a ``kind`` — ``regression_warning`` or
    ``context`` — are ignored on both sides); with fewer than 3 prior rows
    there is no stable baseline and the check abstains.  Returns ``None``
    when healthy, else a dict describing the drift: ``{"metric", "value",
    "baseline", "drift", "direction", "tolerance"}``.
    """
    rows = [
        r
        for r in history
        if isinstance(r, dict) and r.get("metric") == metric and r.get("kind") is None
    ]
    if len(rows) < 4:  # newest + >= 3 predecessors
        return None
    newest = float(rows[-1]["value"])
    prior = [float(r["value"]) for r in rows[-(window + 1) : -1]]
    baseline = statistics.median(prior)
    if baseline == 0:
        return None
    direction = direction or infer_direction(metric)
    drift = (newest - baseline) / abs(baseline)
    regressed = drift > tolerance if direction == "lower" else -drift > tolerance
    if not regressed:
        return None
    return {
        "metric": metric,
        "value": newest,
        "baseline": baseline,
        "drift": drift,
        "direction": direction,
        "tolerance": tolerance,
    }


def bench_regressions(
    bench_dir, tolerance: float = 0.15, window: int = 5
) -> list[dict]:
    """Scan ``BENCH_*.json`` histories for newest-vs-trailing-median drift.

    Runs :func:`check_regression` (the same check the bench harness applies
    when it records a row) on every measured metric.  Also surfaces persisted
    ``regression_warning`` rows the bench runs appended themselves — but only
    ones not yet *superseded* by a newer measurement of the same metric: a
    recovered metric stops flagging the checkout, matching how the trend
    check washes out once healthy rows re-enter the median window.
    """
    found: list[dict] = []
    root = Path(bench_dir)
    if not root.exists():
        return found
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            rows = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue
        if not isinstance(rows, list):
            continue
        measured: dict[str, None] = {}  # metric names in first-seen order
        live_warnings: dict[str, list[dict]] = {}
        for row in rows:
            if not isinstance(row, dict) or "metric" not in row:
                continue
            metric = row["metric"]
            if row.get("kind") == "regression_warning":
                live_warnings.setdefault(metric, []).append(row)
            elif row.get("kind") is None:
                live_warnings.pop(metric, None)  # healthy row supersedes warnings
                measured[metric] = None
        for metric, rows_for_metric in live_warnings.items():
            for row in rows_for_metric:
                found.append(
                    {
                        "file": path.name,
                        "metric": metric,
                        "detail": row.get("detail", "recorded regression warning"),
                        "source": "recorded",
                    }
                )
        for metric in measured:
            drift = check_regression(rows, metric, tolerance=tolerance, window=window)
            if drift is not None:
                found.append(
                    {
                        "file": path.name,
                        "metric": metric,
                        "detail": (
                            f"newest {drift['value']:.6g} vs trailing median "
                            f"{drift['baseline']:.6g} ({drift['drift']:+.1%}, "
                            f"{drift['direction']} is better)"
                        ),
                        "source": "trend",
                    }
                )
    return found


# --------------------------------------------------------------------------- #
# Doctor
# --------------------------------------------------------------------------- #
@dataclass
class DoctorReport:
    """Folded health verdict with a CI-ready exit code."""

    code: int  # 0 healthy / 1 degraded / 2 firing
    verdict: str
    statuses: list[SLOStatus] = field(default_factory=list)
    firing: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    bench_warnings: list[dict] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"doctor: {self.verdict} (exit {self.code})"]
        for status in self.statuses:
            flag = (
                "BREACHING"
                if status.breaching
                else "degraded" if status.degraded else "ok"
            )
            lines.append(
                f"  slo {status.slo.name:<24} {flag:<10} "
                f"burn fast={status.fast_burn:6.2f} slow={status.slow_burn:6.2f} "
                f"budget={status.budget_remaining:6.1%} "
                f"(n={status.fast_samples}) — {status.slo.target()}"
            )
        for alert in self.firing:
            lines.append(
                f"  alert {alert.name} FIRING since={alert.firing_since} "
                f"episode={alert.episode} [{alert.category}/{alert.severity}]"
            )
        for warning in self.bench_warnings:
            lines.append(
                f"  bench {warning['file']}:{warning['metric']} — {warning['detail']}"
            )
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def doctor_from_dir(
    directory,
    bench_dir=None,
    bench_tolerance: float = 0.15,
) -> DoctorReport:
    """Doctor verdict for a *saved* health directory (the CI/offline path).

    Reads the ``slos.json`` statuses and alert states a
    :meth:`HealthEngine.save` left behind (falling back to replaying
    ``alerts.jsonl`` when the run died before saving) and applies the same
    exit-code contract as :func:`doctor_verdict`.  ``bench_dir`` additionally
    scans ``BENCH_*.json`` histories (``repro doctor --bench``).
    """
    from types import SimpleNamespace

    root = Path(directory)
    payload: dict = {}
    slos_path = root / "slos.json"
    if slos_path.exists():
        try:
            payload = json.loads(slos_path.read_text())
        except json.JSONDecodeError:
            payload = {}
    status_rows = [r for r in payload.get("statuses", []) if isinstance(r, dict)]
    alert_rows = [r for r in payload.get("alerts", []) if isinstance(r, dict)]
    if not alert_rows and (root / "alerts.jsonl").exists():
        manager = AlertManager(log_path=root / "alerts.jsonl")
        alert_rows = [alert.as_dict() for alert in manager.alerts()]
    warnings = (
        bench_regressions(bench_dir, tolerance=bench_tolerance)
        if bench_dir is not None
        else []
    )
    firing = [SimpleNamespace(**row) for row in alert_rows if row.get("state") == FIRING]
    breaching = [r for r in status_rows if r.get("breaching")]
    degraded = [r for r in status_rows if r.get("degraded")]
    exhausted = [
        r
        for r in status_rows
        if r.get("budget_remaining", 1.0) <= 0.0 and not r.get("breaching")
    ]
    notes = [
        "{slo} {flag}  burn fast={fast:.2f} slow={slow:.2f} budget={budget:.1%} — {target}".format(
            slo=row.get("slo", "?"),
            flag=(
                "BREACHING"
                if row.get("breaching")
                else "degraded" if row.get("degraded") else "ok"
            ),
            fast=float(row.get("fast_burn", 0.0)),
            slow=float(row.get("slow_burn", 0.0)),
            budget=float(row.get("budget_remaining", 1.0)),
            target=row.get("target", ""),
        )
        for row in status_rows
    ]
    if firing or breaching:
        code, verdict = 2, "firing"
    elif degraded or exhausted or warnings:
        code, verdict = 1, "degraded"
    else:
        code, verdict = 0, "healthy"
    return DoctorReport(
        code=code,
        verdict=verdict,
        statuses=[],
        firing=firing,
        notes=notes,
        bench_warnings=warnings,
    )


def doctor_verdict(
    statuses: list[SLOStatus],
    alerts: list,
    bench_warnings: list[dict] | None = None,
) -> DoctorReport:
    """Fold statuses + alert states (+ bench warnings) into one verdict.

    Exit-code contract (asserted by CI): ``2`` if anything is firing or
    breaching, else ``1`` if anything is degraded / out of budget / a bench
    regression exists, else ``0``.
    """
    bench_warnings = bench_warnings or []
    firing = [a for a in alerts if getattr(a, "state", None) == FIRING]
    breaching = [s for s in statuses if s.breaching]
    degraded = [s for s in statuses if s.degraded]
    exhausted = [s for s in statuses if s.budget_remaining <= 0.0 and not s.breaching]
    notes: list[str] = []
    if firing or breaching:
        code, verdict = 2, "firing"
        notes.extend(f"{s.slo.name} breaching on both windows" for s in breaching)
        notes.extend(f"{a.name} firing" for a in firing)
    elif degraded or exhausted or bench_warnings:
        code, verdict = 1, "degraded"
        notes.extend(f"{s.slo.name} fast-window burn elevated" for s in degraded)
        notes.extend(f"{s.slo.name} error budget exhausted" for s in exhausted)
        notes.extend(
            f"bench regression: {w['file']}:{w['metric']}" for w in bench_warnings
        )
    else:
        code, verdict = 0, "healthy"
    return DoctorReport(
        code=code,
        verdict=verdict,
        statuses=list(statuses),
        firing=firing,
        notes=notes,
        bench_warnings=bench_warnings,
    )
