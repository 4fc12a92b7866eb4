"""End-to-end fault-tolerant lifecycle scenario behind ``repro retrain-loop``.

One process, the whole story:

1. generate a synthetic benchmark and hold the last fraction of users out of
   the *incumbent* snapshot (trained on the retained users only);
2. serve the incumbent from a :class:`~repro.serve.RecommendationService`
   whose event log is a **durable WAL** in the run directory;
3. replay the held-out users' interactions as timestamped events through the
   :class:`~repro.stream.updater.StreamingUpdater` — every event is fsynced
   into the WAL before it is acknowledged, folded in incrementally, and
   observed by the drift monitor (an all-cold-user stream trips the
   ``cold_user_ratio`` monitor quickly);
4. run one :class:`~repro.orchestrate.retrain.RetrainOrchestrator` tick per
   micro-batch.  When drift trips, the orchestrator retrains on the
   log-patched table, gates the candidate on offline recall@K against the
   incumbent, hot-swaps, watches, and rolls back on regression — journaling
   every stage into the same run directory.

The function returns a :class:`RetrainLoopResult` summarising what happened;
``--smoke`` mode asserts the lifecycle actually completed (drift detected,
candidate promoted, recall did not collapse) so CI exercises the whole path.

Extensions over the original scenario:

* ``canary_fraction`` > 0 inserts the canary stage: each orchestrator tick
  routes every known user (retained or streamed so far) through the run's
  :class:`~repro.serve.canary.TrafficSplitter`, and once the event stream is
  exhausted the loop keeps ticking (re-serving those users) until the
  analyzer reaches a verdict — so a canary in flight is driven to promote or
  abort rather than stranded;
* ``schedule`` adds cron-style scheduled retrains next to the drift monitor;
* ``max_cycles`` lets the loop run several full retrain cycles (scheduled
  retrains make that meaningful) instead of stopping at the first outcome;
* SIGINT drains gracefully: the in-flight tick finishes its stage and
  journals before the loop returns (``interrupted=True``) — a second Ctrl-C
  still kills the process the ordinary way.
"""

from __future__ import annotations

import signal as signal_module
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..data.interactions import RatingTable
from ..data.synthetic import load_benchmark
from ..serve.canary import GuardrailPolicy
from ..serve.service import RecommendationService
from ..stream.drift import DriftConfig
from ..stream.events import EventLog
from ..stream.updater import StreamingUpdater, live_popularity
from .retrain import RetrainConfig, RetrainOrchestrator, TickReport, offline_recall
from .schedule import RetrainScheduler

__all__ = ["RetrainLoopConfig", "RetrainLoopResult", "run_retrain_loop"]


@dataclass(frozen=True)
class RetrainLoopConfig:
    """Knobs of the lifecycle scenario."""

    directory: Path | str = "retrain-loop"
    dataset: str = "amazon-book"
    scale: float = 0.25
    holdout_fraction: float = 0.3
    k: int = 20
    epochs: int = 3
    embedding_dim: int = 32
    seed: int = 0
    chunk_size: int = 256
    max_events: int | None = None
    min_recall_ratio: float = 0.9
    use_worker: bool = False
    max_ticks: int = 64
    #: Cohort fraction for the canary stage (0 disables it — legacy flow).
    canary_fraction: float = 0.0
    #: ``"shadow"`` mirrors the cohort; ``"canary"`` serves it the candidate.
    canary_mode: str = "shadow"
    #: Guardrail evidence required before the analyzer promotes (kept small
    #: here so the scenario converges in tens of ticks, not thousands).
    canary_min_samples: int = 32
    #: Optional cron spec / ``@every`` interval for scheduled retrains.
    schedule: str | None = None
    #: Stop after this many completed retrain cycles (terminal outcomes).
    max_cycles: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.max_ticks <= 0:
            raise ValueError("max_ticks must be positive")
        if not 0.0 <= self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in [0, 1]")
        if self.canary_min_samples < 1:
            raise ValueError("canary_min_samples must be positive")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")


@dataclass(frozen=True)
class RetrainLoopResult:
    """Outcome of one :func:`run_retrain_loop` run."""

    outcome: str | None
    run_id: str | None
    events_streamed: int
    wal_records: int
    ticks: int
    incumbent_recall: float
    final_recall: float
    incumbent_id: str
    serving_id: str
    #: Completed retrain cycles (terminal outcomes) this invocation saw.
    cycles: int = 0
    #: Final canary-stage decision of the last run (``None`` if stage off).
    canary_decision: str | None = None
    #: Cohort requests the canary verdict rested on (0 without a verdict).
    canary_samples: int = 0
    #: True when SIGINT drained the loop early (journal is consistent).
    interrupted: bool = False
    reports: tuple[TickReport, ...] = field(repr=False, default=())

    def as_row(self) -> dict:
        row = {
            "outcome": self.outcome or "-",
            "events": self.events_streamed,
            "wal records": self.wal_records,
            "ticks": self.ticks,
            "cycles": self.cycles,
            "recall(incumbent)": round(self.incumbent_recall, 4),
            "recall(final)": round(self.final_recall, 4),
            "serving": self.serving_id,
        }
        if self.canary_decision is not None:
            row["canary"] = self.canary_decision
            row["canary samples"] = self.canary_samples
        if self.interrupted:
            row["interrupted"] = True
        return row


def run_retrain_loop(config: RetrainLoopConfig | None = None) -> RetrainLoopResult:
    """Run the full drift → retrain → promote/rollback lifecycle once."""
    from ..train.retrain import RetrainSettings, retrain_snapshot

    config = config or RetrainLoopConfig()
    directory = Path(config.directory)
    directory.mkdir(parents=True, exist_ok=True)
    settings = RetrainSettings(
        embedding_dim=config.embedding_dim,
        epochs=config.epochs,
        seed=config.seed,
        dataset_name=config.dataset,
    )

    # -- 1. data: incumbent sees only the retained users ------------------- #
    dataset = load_benchmark(config.dataset, scale=config.scale, seed=config.seed)
    cutoff = dataset.num_users - max(
        1, int(round(dataset.num_users * config.holdout_fraction))
    )
    retained = dataset.train[dataset.train[:, 0] < cutoff]
    held = dataset.train[dataset.train[:, 0] >= cutoff]
    base_table = RatingTable(
        users=retained[:, 0],
        items=retained[:, 1],
        ratings=np.ones(len(retained)),
        num_users=cutoff,
        num_items=dataset.num_items,
    )
    eval_positives = dataset.user_positives("test")

    # -- 2. incumbent snapshot + service over a durable WAL ---------------- #
    incumbent = retrain_snapshot(base_table, settings)
    log = EventLog.open(directory / "events.wal")
    service = RecommendationService(incumbent, default_k=config.k)
    updater = StreamingUpdater(
        service,
        log,
        batch_size=config.chunk_size,
        # All streamed traffic is from held-out users: the cold-user monitor
        # is the one designed to catch exactly this audience shift.
        drift=DriftConfig(cold_user_threshold=0.5, min_events=min(50, config.chunk_size)),
    )
    service.set_popularity_provider(live_popularity(incumbent, log))
    incumbent_recall = offline_recall(incumbent, eval_positives, config.k)

    # Canary wiring: each canary tick re-serves every known user — the
    # retained ones and those streamed so far — through the splitter, the
    # scenario's stand-in for live traffic.  The cohort is a hash of the run
    # id; the streamed users alone (15 in the smoke run) are too few for any
    # of them to be sure to fall inside it, and the canary then times out
    # without a single sample.
    known_users: set[int] = set(range(cutoff))

    def canary_traffic(splitter) -> None:
        splitter.recommend_many(sorted(known_users), k=config.k)

    canary_fractions: tuple[float, ...] = ()
    if config.canary_fraction > 0:
        canary_fractions = (config.canary_fraction,)
    scheduler = None
    if config.schedule is not None:
        scheduler = RetrainScheduler(config.schedule, seq_fn=lambda: int(log.next_seq))

    orchestrator = RetrainOrchestrator(
        service,
        retrain_fn=lambda table: retrain_snapshot(table, settings),
        base_table=base_table,
        eval_positives=eval_positives,
        updater=updater,
        config=RetrainConfig(
            directory=directory,
            k=config.k,
            min_recall_ratio=config.min_recall_ratio,
            use_worker=config.use_worker,
            canary_fractions=canary_fractions,
            canary_mode=config.canary_mode,
            canary_policy=GuardrailPolicy(
                min_samples=config.canary_min_samples,
                min_abort_samples=min(10, config.canary_min_samples),
            ),
            canary_max_ticks=config.max_ticks,
        ),
        scheduler=scheduler,
        canary_traffic_fn=canary_traffic if canary_fractions else None,
    )

    # -- 3./4. stream events; one orchestrator tick per micro-batch -------- #
    rng = np.random.default_rng(config.seed)
    events = held[rng.permutation(len(held))]
    if config.max_events is not None:
        events = events[: config.max_events]

    # Graceful SIGINT drain: the first Ctrl-C only raises a flag; the tick in
    # flight finishes its stage and journals, then the loop exits cleanly.
    # Only installable from the main thread (signal API restriction) — the
    # loop still works, just without the graceful-drain behaviour, elsewhere.
    stop_requested = threading.Event()
    previous_handler = None
    installed = threading.current_thread() is threading.main_thread()
    if installed:
        previous_handler = signal_module.signal(
            signal_module.SIGINT, lambda signum, frame: stop_requested.set()
        )

    reports: list[TickReport] = []
    outcome = None
    run_id = None
    cycles = 0
    try:
        for start in range(0, len(events), config.chunk_size):
            if stop_requested.is_set():
                break
            chunk = events[start : start + config.chunk_size]
            log.extend(
                chunk[:, 0],
                chunk[:, 1],
                timestamps=np.arange(start, start + len(chunk), dtype=np.float64),
            )
            known_users.update(chunk[:, 0].tolist())
            updater.apply()
            report = orchestrator.tick()
            reports.append(report)
            if report.outcome is not None:
                outcome, run_id = report.outcome, report.run_id
                cycles += 1
                if cycles >= config.max_cycles:
                    break
            if orchestrator.ticks >= config.max_ticks:
                break
        # Tail: a multi-tick canary may still be in flight when the event
        # stream runs dry — keep ticking on the known users' traffic until
        # the analyzer reaches a verdict (or the tick budget runs out).
        while (
            not stop_requested.is_set()
            and cycles < config.max_cycles
            and orchestrator.ticks < config.max_ticks
        ):
            in_flight = orchestrator.journal.load()
            if in_flight is None or in_flight.get("outcome") is not None:
                break
            report = orchestrator.tick()
            reports.append(report)
            if report.outcome is not None:
                outcome, run_id = report.outcome, report.run_id
                cycles += 1
    finally:
        if installed:
            signal_module.signal(signal_module.SIGINT, previous_handler)

    canary_decision, canary_samples = None, 0
    last_run = orchestrator.journal.load()
    if last_run is not None:
        canary_stage = last_run.get("stages", {}).get("canary", {})
        canary_decision = canary_stage.get("decision")
        canary_samples = int(canary_stage.get("guardrails", {}).get("samples", 0))

    final_recall = offline_recall(service.snapshot, eval_positives, config.k)
    log.close()
    return RetrainLoopResult(
        outcome=outcome,
        run_id=run_id,
        events_streamed=int(log.next_seq),
        wal_records=int(log.next_seq),
        ticks=orchestrator.ticks,
        incumbent_recall=incumbent_recall,
        final_recall=final_recall,
        incumbent_id=incumbent.snapshot_id,
        serving_id=service.snapshot.snapshot_id,
        cycles=cycles,
        canary_decision=canary_decision,
        canary_samples=canary_samples,
        interrupted=stop_requested.is_set(),
        reports=tuple(reports),
    )
