"""Blue/green retrain controller with journaled, resumable stages.

The control loop a production recommender needs once drift monitoring exists:

1. **signal** — a :class:`~repro.stream.drift.RefreshSignal` arrives (polled
   from the updater's monitor or submitted explicitly);
2. **retrain** — the incumbent snapshot is preserved as the rollback target,
   the log-patched :class:`~repro.data.interactions.RatingTable` is exported,
   and a fresh snapshot is trained — optionally in a disposable worker
   process — and *atomically* published as the candidate;
3. **evaluate** — candidate and incumbent are scored offline (recall@K on a
   held-out positives set); promotion is gated on
   ``candidate >= min_recall_ratio × incumbent``;
4. **canary** — (optional; enabled by ``RetrainConfig.canary_fractions``) the
   candidate faces *live* traffic before it owns any of it: a
   :class:`~repro.serve.canary.TrafficSplitter` shadows or serves a
   deterministic hash cohort, a :class:`~repro.serve.canary.CanaryAnalyzer`
   watches the guardrails (ranking overlap@k, candidate error/degraded
   rates, latency ratio) and sequentially decides extend / ramp / promote /
   **abort** — an abort ends the run with the incumbent still serving and no
   rollback needed, because the candidate was never fully swapped in;
5. **promote** — the candidate is loaded with ``verify=True`` (manifest
   checked bit-for-bit) and hot-swapped into the live service;
6. **watch** — post-swap live evaluation plus the service's circuit breaker;
   a recall regression or a breaker trip rolls the incumbent back in within
   the same control-loop tick.

The canary stage is *multi-tick*: unlike every other stage it returns with
the run still in flight while evidence accumulates, journaling the
splitter's cohort geometry and guardrail counters on every tick so a killed
controller resumes mid-rollout with the same cohort (the hash is salted by
the run id) and the same evidence.

Signals come from three places: explicit :meth:`RetrainOrchestrator.submit`,
the streaming updater's drift monitor, and — new — a cron-style
:class:`~repro.orchestrate.schedule.RetrainScheduler`, polled in that order.
Scheduler firings that land while a run is already in flight are consumed
without starting a second run (dedupe).

Every stage transition is journaled to an atomically-published JSON state
file *before* the orchestrator moves on, and every stage checks the journal
before doing work — so a controller killed at any instruction resumes from
its journal on restart and never reruns a completed stage (in particular,
never retrains twice for one signal).  All side-effectful steps are wrapped
in :func:`repro.reliability.retry`.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..eval.metrics import mean_recall
from ..obs.metrics import get_registry
from ..obs.tracing import span
from ..reliability.atomicio import atomic_write_bytes
from ..reliability.faults import fault_point
from ..reliability.retry import RetryPolicy, retry
from ..serve.canary import MODES, CanaryAnalyzer, CanaryDecision, GuardrailPolicy, TrafficSplitter
from ..serve.retrieval import ExactIndex, Retriever
from ..serve.snapshot import EmbeddingSnapshot, load_snapshot, save_snapshot
from ..stream.drift import RefreshSignal

__all__ = [
    "OrchestratorError",
    "OrchestratorJournal",
    "RetrainConfig",
    "RetrainOrchestrator",
    "TickReport",
    "canary_status",
    "offline_recall",
]

#: Stage names in execution order (journal keys).
STAGES = ("retrain", "evaluate", "canary", "promote", "watch")

#: Terminal run outcomes (journal ``outcome`` values / metric labels).
OUTCOMES = ("promoted", "rejected", "rolled_back", "aborted")


class OrchestratorError(RuntimeError):
    """A lifecycle stage failed beyond what retries could absorb."""


def offline_recall(
    snapshot: EmbeddingSnapshot, positives: dict[int, np.ndarray], k: int
) -> float:
    """Mean recall@k of ``snapshot`` over users with held-out positives.

    Scores through the same masked exact-retrieval kernel the serving layer
    uses, so gate-time numbers and serve-time behaviour cannot diverge.  Users
    outside the snapshot's table (or with empty positives) are skipped.
    """
    users = [
        int(user)
        for user, items in positives.items()
        if len(items) and 0 <= int(user) < snapshot.num_users
    ]
    if not users:
        return 0.0
    retriever = Retriever(snapshot, ExactIndex(snapshot.item_embeddings), mask_train=True)
    indices, _ = retriever.topk_for_users(np.asarray(users, dtype=np.int64), k)
    return mean_recall(indices, [positives[user] for user in users], k)


class OrchestratorJournal:
    """Crash-safe JSON state file recording one retrain run's progress.

    Writes go through :func:`repro.reliability.atomic_write_bytes`, so the
    journal on disk is always a complete, parseable document describing the
    last *committed* stage — the property the resume logic relies on.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def load(self) -> dict | None:
        try:
            return json.loads(self.path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError) as error:
            raise OrchestratorError(
                f"orchestrator journal {self.path} is unreadable ({error}); "
                "move it aside to start fresh — refusing to guess lifecycle state"
            ) from error

    def write(self, state: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            self.path, json.dumps(state, indent=2).encode(), "orchestrator.journal"
        )

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


@dataclass(frozen=True)
class RetrainConfig:
    """Knobs of the blue/green control loop.

    ``min_recall_ratio`` gates promotion (candidate offline recall vs the
    incumbent's); ``rollback_tolerance`` gates survival after the swap (live
    recall vs the candidate's own gate-time recall — a post-swap drop below
    this fraction means the offline gate was fooled, so roll back).
    """

    directory: Path | str = "orchestrator"
    k: int = 20
    min_recall_ratio: float = 0.95
    rollback_tolerance: float = 0.8
    verify_snapshots: bool = True
    use_worker: bool = False
    worker_timeout: float = 900.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.5)
    )
    #: Cohort fraction ramp for the canary stage; empty ⇒ stage is skipped
    #: (pre-canary behaviour: evaluate gates straight into promote).
    canary_fractions: tuple[float, ...] = ()
    #: ``"shadow"`` (mirror cohort queries, serve incumbent) or ``"canary"``
    #: (actually serve the candidate to the cohort).
    canary_mode: str = "shadow"
    #: Guardrail thresholds the analyzer decides against.
    canary_policy: GuardrailPolicy = field(default_factory=GuardrailPolicy)
    #: Bound on the shadow mirror queue (overflow is shed, never blocks).
    canary_mirror_queue: int = 256
    #: Abort a rollout that reaches no verdict within this many canary ticks.
    canary_max_ticks: int = 64
    #: List length for the shadow ranking-overlap comparison (``None`` ⇒ ``k``).
    canary_overlap_k: int | None = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.min_recall_ratio < 0:
            raise ValueError("min_recall_ratio must be non-negative")
        if not 0.0 <= self.rollback_tolerance <= 1.0:
            raise ValueError("rollback_tolerance must be in [0, 1]")
        if self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if self.canary_mode not in MODES:
            raise ValueError(f"canary_mode must be one of {MODES}")
        if self.canary_mirror_queue < 1:
            raise ValueError("canary_mirror_queue must be positive")
        if self.canary_max_ticks < 1:
            raise ValueError("canary_max_ticks must be positive")


@dataclass(frozen=True)
class TickReport:
    """What one :meth:`RetrainOrchestrator.tick` call did."""

    run_id: str | None
    #: "promoted" | "rejected" | "rolled_back" | "aborted" | None (idle or
    #: in-flight — a multi-tick canary keeps the run open across reports).
    outcome: str | None
    actions: tuple[str, ...]

    @property
    def idle(self) -> bool:
        return self.run_id is None


def _worker_entry(retrain_fn, table, path) -> None:
    """Child-process body: train and atomically publish the candidate."""
    snapshot = retrain_fn(table)
    save_snapshot(snapshot, path)


class RetrainOrchestrator:
    """Consume refresh signals; retrain, gate, hot-swap and auto-rollback.

    Parameters
    ----------
    service:
        The live :class:`~repro.serve.service.RecommendationService` whose
        snapshot this controller manages.
    retrain_fn:
        ``callable(RatingTable) -> EmbeddingSnapshot`` — the expensive step.
        Use :func:`repro.train.retrain_snapshot` (or a ``functools.partial``
        of it) for the standard pipeline.
    base_table:
        The rating table the *incumbent* snapshot was trained from; exported
        events are appended to it for each retrain.
    eval_positives:
        ``{user: positive item array}`` held-out interactions used for both
        the offline promotion gate and the post-swap watch.
    updater:
        Optional :class:`~repro.stream.updater.StreamingUpdater`.  When given,
        its drift monitor is polled for signals each tick, its applied events
        are merged into the training table, and its monitor is reset after
        each completed run.  Without it, signals must be handed to
        :meth:`submit` and ``base_table`` is used as-is.
    evaluate_fn / live_eval_fn:
        Injection points for the offline gate (``(snapshot, positives, k) ->
        float``) and the post-swap live check (``(service) -> float``).
        Defaults use :func:`offline_recall`.  Tests inject regressions here;
        operators can wire in a true online metric.
    scheduler:
        Optional :class:`~repro.orchestrate.schedule.RetrainScheduler` polled
        after the drift monitor each tick.  Firings that land while a run is
        in flight are consumed via :meth:`RetrainScheduler.skip` (deduped).
    canary_traffic_fn:
        ``callable(TrafficSplitter) -> None`` invoked once per canary tick to
        route live traffic through the splitter.  In an embedded deployment
        the front door holds :attr:`active_splitter` directly and this can be
        ``None`` — the stage then decides on whatever traffic already flowed.
    """

    def __init__(
        self,
        service,
        retrain_fn: Callable,
        base_table,
        eval_positives: dict[int, np.ndarray],
        updater=None,
        config: RetrainConfig | None = None,
        evaluate_fn: Callable | None = None,
        live_eval_fn: Callable | None = None,
        scheduler=None,
        canary_traffic_fn: Callable | None = None,
    ) -> None:
        self.service = service
        self.retrain_fn = retrain_fn
        self.base_table = base_table
        self.eval_positives = eval_positives
        self.updater = updater
        self.config = config or RetrainConfig()
        self.directory = Path(self.config.directory)
        self.journal = OrchestratorJournal(self.directory / "orchestrator.json")
        self._evaluate_fn = evaluate_fn or offline_recall
        self._live_eval_fn = live_eval_fn or (
            lambda svc: self._evaluate_fn(svc.snapshot, self.eval_positives, self.config.k)
        )
        self.scheduler = scheduler
        self._canary_traffic_fn = canary_traffic_fn
        self._splitter: TrafficSplitter | None = None
        self._pending_signals: list[RefreshSignal] = []
        self.ticks = 0
        # Metric handles bound once (no-ops unless metrics are enabled).
        registry = get_registry()
        self._m_ticks = registry.counter("orchestrate.ticks.total", "control-loop ticks")
        self._m_stage_seconds = {
            name: registry.histogram(
                "orchestrate.stage.duration_seconds",
                "wall time spent in each lifecycle stage",
                labels={"stage": name},
            )
            for name in STAGES
        }
        self._m_outcomes = {
            outcome: registry.counter(
                "orchestrate.runs.total",
                "completed retrain runs by terminal outcome",
                labels={"outcome": outcome},
            )
            for outcome in OUTCOMES
        }
        self._m_canary_decisions = {
            action: registry.counter(
                "orchestrate.canary.decisions.total",
                "canary analyzer decisions by action",
                labels={"action": action},
            )
            for action in ("promote", "ramp", "extend", "abort", "skipped")
        }

    # ------------------------------------------------------------------ #
    # Signal intake
    # ------------------------------------------------------------------ #
    def submit(self, signal: RefreshSignal) -> None:
        """Queue a refresh signal for the next tick (alternative to polling)."""
        self._pending_signals.append(signal)

    def _poll_signal(self) -> RefreshSignal | None:
        if self._pending_signals:
            return self._pending_signals.pop(0)
        if self.updater is not None:
            signal = self.updater.monitor.check()
            if signal is not None:
                return signal
        if self.scheduler is not None:
            return self.scheduler.check()
        return None

    # ------------------------------------------------------------------ #
    # Retry plumbing
    # ------------------------------------------------------------------ #
    def _retry(self, fn, *args, **kwargs):
        return retry(fn, *args, policy=self.config.retry, **kwargs)

    @contextmanager
    def _observe_stage(self, name: str):
        """Span + duration histogram around one stage's actual work.

        Entered *after* the journal done-check, so resumed/skipped stages do
        not pollute the duration distribution with near-zero samples.
        """
        with span(f"orchestrate.{name}"):
            started = time.perf_counter()
            try:
                yield
            finally:
                self._m_stage_seconds[name].observe(time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # The control loop
    # ------------------------------------------------------------------ #
    def tick(self) -> TickReport:
        """Advance the lifecycle by one control-loop iteration.

        Starts a run if a signal is pending (or resumes the journaled run a
        previous — possibly killed — controller left behind), then drives it
        through every remaining stage to a terminal outcome.  Promote and
        watch happen in the same tick, so a post-swap regression is rolled
        back before this method returns.
        """
        self.ticks += 1
        self._m_ticks.inc()
        actions: list[str] = []
        run = self.journal.load()
        if run is not None and run.get("outcome") is None:
            # A cycle is already in flight: schedule firings that elapsed in
            # the meantime are consumed, not queued — one retrain at a time.
            if self.scheduler is not None and self.scheduler.skip():
                actions.append("scheduled firing deduped (run in flight)")
            # Journals written before the canary stage existed lack its key;
            # default it to not-done (with no fractions configured it skips).
            for name in STAGES:
                run["stages"].setdefault(name, {"done": False})
            actions.append(f"resumed {run['run_id']}")
        else:
            signal = self._poll_signal()
            if signal is None:
                return TickReport(run_id=None, outcome=None, actions=("idle",))
            run = self._start_run(signal)
            actions.append(f"started {run['run_id']}")
        try:
            with span("orchestrate.tick", run_id=run["run_id"]):
                self._stage_retrain(run, actions)
                self._stage_evaluate(run, actions)
                if run["stages"]["evaluate"]["promote"]:
                    if not self._stage_canary(run, actions):
                        # Still collecting canary evidence: the run stays in
                        # flight and the next tick resumes exactly here.
                        return TickReport(
                            run_id=run["run_id"], outcome=None, actions=tuple(actions)
                        )
                    if run.get("outcome") is None:
                        self._stage_promote(run, actions)
                        self._stage_watch(run, actions)
                else:
                    self._finish(run, "rejected", actions)
        except Exception as error:
            # The journal already records every committed stage; surface the
            # failure but leave the run resumable by the next tick/controller.
            raise OrchestratorError(
                f"run {run['run_id']} failed mid-flight (progress journaled, "
                f"next tick resumes): {error}"
            ) from error
        return TickReport(
            run_id=run["run_id"], outcome=run.get("outcome"), actions=tuple(actions)
        )

    def run_forever(
        self, poll_interval: float = 5.0, max_ticks: int | None = None
    ) -> list[TickReport]:
        """Tick until interrupted (or ``max_ticks``); returns all reports."""
        reports: list[TickReport] = []
        while max_ticks is None or self.ticks < max_ticks:
            reports.append(self.tick())
            if reports[-1].idle and poll_interval > 0:
                time.sleep(poll_interval)
        return reports

    # ------------------------------------------------------------------ #
    # Stages (each journals its completion; each skips itself on resume)
    # ------------------------------------------------------------------ #
    def _start_run(self, signal: RefreshSignal) -> dict:
        incumbent = self.service.snapshot
        run_id = f"run-seq{signal.as_of_seq}-{incumbent.snapshot_id}"
        incumbent_path = self.directory / f"incumbent-{run_id}.npz"
        # Preserve the rollback target *before* anything else can go wrong.
        self._retry(save_snapshot, incumbent, incumbent_path)
        run = {
            "run_id": run_id,
            "started_at": time.time(),
            "signal": {
                "reasons": list(signal.reasons),
                "as_of_seq": int(signal.as_of_seq),
                "metrics": signal.metrics.as_dict(),
            },
            "incumbent_path": str(incumbent_path),
            "incumbent_id": incumbent.snapshot_id,
            "stages": {name: {"done": False} for name in STAGES},
            "outcome": None,
        }
        self.journal.write(run)
        return run

    def _commit_stage(self, run: dict, stage: str, **fields) -> None:
        run["stages"][stage] = {"done": True, **fields}
        fault_point(f"orchestrator.commit.{stage}")
        self.journal.write(run)

    def _candidate_path(self, run: dict) -> Path:
        return self.directory / f"candidate-{run['run_id']}.npz"

    def _stage_retrain(self, run: dict, actions: list[str]) -> None:
        stage = run["stages"]["retrain"]
        if stage.get("done"):
            return
        with self._observe_stage("retrain"):
            fault_point("orchestrator.retrain")
            table = self.base_table
            exported_through = None
            if self.updater is not None:
                table = self._retry(self.updater.export_training_table, self.base_table)
                exported_through = int(self.updater.applied_seq)
            candidate_path = self._candidate_path(run)
            if self.config.use_worker:
                self._retry(self._retrain_in_worker, table, candidate_path)
            else:
                self._retry(
                    lambda: save_snapshot(self.retrain_fn(table), candidate_path)
                )
            actions.append("retrained")
            self._commit_stage(
                run,
                "retrain",
                candidate_path=str(candidate_path),
                exported_through=exported_through,
            )

    def _retrain_in_worker(self, table, candidate_path: Path) -> None:
        """Run the retrain in a disposable fork so a crash or OOM in training
        can never take the controller (or the serving process) down with it."""
        context = multiprocessing.get_context("fork")
        worker = context.Process(
            target=_worker_entry, args=(self.retrain_fn, table, candidate_path)
        )
        worker.start()
        worker.join(self.config.worker_timeout)
        if worker.is_alive():
            worker.terminate()
            worker.join()
            raise OrchestratorError(
                f"retrain worker exceeded {self.config.worker_timeout}s and was killed"
            )
        if worker.exitcode != 0:
            raise OrchestratorError(f"retrain worker died with exit code {worker.exitcode}")
        if not candidate_path.exists():
            raise OrchestratorError("retrain worker exited cleanly but published no candidate")

    def _load(self, path: str | Path) -> EmbeddingSnapshot:
        return self._retry(load_snapshot, path, verify=self.config.verify_snapshots)

    def _stage_evaluate(self, run: dict, actions: list[str]) -> None:
        stage = run["stages"]["evaluate"]
        if stage.get("done"):
            return
        with self._observe_stage("evaluate"):
            fault_point("orchestrator.evaluate")
            candidate = self._load(run["stages"]["retrain"]["candidate_path"])
            incumbent = self._load(run["incumbent_path"])
            candidate_recall = float(
                self._evaluate_fn(candidate, self.eval_positives, self.config.k)
            )
            incumbent_recall = float(
                self._evaluate_fn(incumbent, self.eval_positives, self.config.k)
            )
            promote = candidate_recall >= self.config.min_recall_ratio * incumbent_recall
            actions.append(
                f"evaluated candidate={candidate_recall:.4f} incumbent={incumbent_recall:.4f} "
                f"-> {'promote' if promote else 'reject'}"
            )
            self._commit_stage(
                run,
                "evaluate",
                candidate_recall=candidate_recall,
                incumbent_recall=incumbent_recall,
                promote=bool(promote),
            )

    # -- canary ---------------------------------------------------------- #
    @property
    def active_splitter(self) -> TrafficSplitter | None:
        """The live splitter during a canary stage (front doors route via it)."""
        return self._splitter

    def _ensure_splitter(self, run: dict) -> TrafficSplitter:
        """Build (or rebuild after a crash) the splitter for this run.

        The cohort hash is salted with the run id, so a rebuilt splitter
        assigns every user to exactly the arm the dead controller did; the
        journaled state restores the fraction ramp position and accumulated
        guardrail counters on top.
        """
        if self._splitter is None or self._splitter.salt != run["run_id"]:
            candidate = self._load(run["stages"]["retrain"]["candidate_path"])
            self._splitter = TrafficSplitter(
                self.service,
                candidate,
                salt=run["run_id"],
                mode=self.config.canary_mode,
                fractions=self.config.canary_fractions,
                overlap_k=self.config.canary_overlap_k or self.config.k,
                mirror_queue_size=self.config.canary_mirror_queue,
            )
            state = run["stages"]["canary"].get("state")
            if state:
                self._splitter.restore(state)
        return self._splitter

    def _teardown_splitter(self) -> None:
        self._splitter = None

    def _journal_canary_progress(self, run: dict, splitter: TrafficSplitter, ticks: int) -> None:
        """Persist in-flight canary state (cohort geometry + guardrails)."""
        run["stages"]["canary"] = {
            "done": False,
            "ticks": ticks,
            "state": splitter.state_dict(),
        }
        fault_point("orchestrator.commit.canary_progress")
        self.journal.write(run)

    def _append_guardrail_record(
        self, run: dict, splitter: TrafficSplitter, decision: CanaryDecision, ticks: int
    ) -> None:
        """Append one guardrail observation to ``canary-guardrails.jsonl``.

        The JSONL file is the rollout's flight recorder: one line per canary
        tick with the decision and the full guardrail snapshot, readable by
        ``canary-status`` and uploadable as a CI artifact.
        """
        record = {
            "run_id": run["run_id"],
            "tick": ticks,
            "time": time.time(),
            "mode": splitter.mode,
            "fraction": splitter.fraction,
            "samples_this_phase": splitter.samples_this_phase,
            "decision": decision.action,
            "reasons": list(decision.reasons),
            "guardrails": splitter.stats.as_dict(),
        }
        path = self.directory / "canary-guardrails.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as stream:
            stream.write(json.dumps(record) + "\n")

    def _stage_canary(self, run: dict, actions: list[str]) -> bool:
        """One canary tick; returns True when the stage reached a verdict.

        Unlike the other stages this one is multi-tick: ``extend``/``ramp``
        journal in-flight progress and return False (the run stays open),
        while ``promote`` commits the stage and ``abort`` additionally
        finishes the run — with the incumbent still serving, since the
        candidate only ever had the cohort.
        """
        stage = run["stages"]["canary"]
        if stage.get("done"):
            self._teardown_splitter()
            return True
        if not self.config.canary_fractions:
            self._commit_stage(run, "canary", decision="skipped", ticks=0)
            self._m_canary_decisions["skipped"].inc()
            actions.append("canary skipped (no fractions configured)")
            return True
        with self._observe_stage("canary"):
            fault_point("orchestrator.canary")
            splitter = self._ensure_splitter(run)
            if self._canary_traffic_fn is not None:
                self._canary_traffic_fn(splitter)
            splitter.drain()
            ticks = int(stage.get("ticks", 0)) + 1
            analyzer = CanaryAnalyzer(self.config.canary_policy)
            decision = analyzer.decide(
                splitter.stats, splitter.samples_this_phase, splitter.at_final_fraction
            )
            if decision.action in ("extend", "ramp") and ticks >= self.config.canary_max_ticks:
                # A rollout that cannot reach a verdict is itself a red flag
                # (no traffic? starved drain?) — fail safe, keep the incumbent.
                decision = CanaryDecision(
                    "abort",
                    (f"no verdict after {ticks} canary ticks "
                     f"(canary_max_ticks={self.config.canary_max_ticks})",),
                )
            self._m_canary_decisions[decision.action].inc()
            self._append_guardrail_record(run, splitter, decision, ticks)
            if decision.action == "ramp":
                fraction = splitter.ramp()
                actions.append(f"canary ramped to {fraction:.0%}")
                self._journal_canary_progress(run, splitter, ticks)
                return False
            if decision.action == "extend":
                actions.append(
                    f"canary extended ({splitter.samples_this_phase} samples "
                    f"at {splitter.fraction:.0%})"
                )
                self._journal_canary_progress(run, splitter, ticks)
                return False
            guardrails = splitter.stats.as_dict()
            if decision.action == "abort":
                self._commit_stage(
                    run,
                    "canary",
                    decision="abort",
                    reasons=list(decision.reasons),
                    ticks=ticks,
                    guardrails=guardrails,
                )
                actions.append(f"canary aborted: {'; '.join(decision.reasons)}")
                self._teardown_splitter()
                self._finish(run, "aborted", actions)
                return True
            self._commit_stage(
                run,
                "canary",
                decision="promote",
                reasons=list(decision.reasons),
                ticks=ticks,
                guardrails=guardrails,
            )
            actions.append(
                f"canary passed ({guardrails['samples']} samples, "
                f"overlap={guardrails['mean_overlap']:.3f})"
            )
            self._teardown_splitter()
            return True

    def _stage_promote(self, run: dict, actions: list[str]) -> None:
        stage = run["stages"]["promote"]
        if stage.get("done"):
            # Resume path: make sure the service really is serving the
            # candidate (a fresh controller starts with the incumbent).
            if self.service.snapshot.snapshot_id != run["candidate_id"]:
                candidate = self._load(run["stages"]["retrain"]["candidate_path"])
                self._retry(self.service.swap_snapshot, candidate)
                actions.append("re-applied journaled promotion")
            return
        with self._observe_stage("promote"):
            fault_point("orchestrator.promote")
            candidate = self._load(run["stages"]["retrain"]["candidate_path"])
            run["candidate_id"] = candidate.snapshot_id
            self._retry(self.service.swap_snapshot, candidate)
            actions.append(f"promoted {candidate.snapshot_id}")
            self._commit_stage(
                run, "promote", breaker_open_count=int(self.service.breaker.open_count)
            )

    def _stage_watch(self, run: dict, actions: list[str]) -> None:
        stage = run["stages"]["watch"]
        if stage.get("done"):
            return
        with self._observe_stage("watch"):
            fault_point("orchestrator.watch")
            live_recall = float(self._retry(self._live_eval_fn, self.service))
            gate_recall = run["stages"]["evaluate"]["candidate_recall"]
            breaker_tripped = (
                self.service.breaker.open_count
                > run["stages"]["promote"]["breaker_open_count"]
                or self.service.breaker.state == self.service.breaker.OPEN
            )
            regressed = live_recall < self.config.rollback_tolerance * gate_recall
            if regressed or breaker_tripped:
                reason = "breaker_trip" if breaker_tripped else "eval_regression"
                incumbent = self._load(run["incumbent_path"])
                self._retry(self.service.swap_snapshot, incumbent)
                actions.append(
                    f"rolled back to {incumbent.snapshot_id} ({reason}, "
                    f"live={live_recall:.4f} vs gate={gate_recall:.4f})"
                )
                self._commit_stage(
                    run, "watch", live_recall=live_recall, rolled_back=True, reason=reason
                )
                self._finish(run, "rolled_back", actions)
            else:
                actions.append(f"watch passed (live={live_recall:.4f})")
                self._commit_stage(
                    run, "watch", live_recall=live_recall, rolled_back=False
                )
                self._finish(run, "promoted", actions)

    def _finish(self, run: dict, outcome: str, actions: list[str]) -> None:
        run["outcome"] = outcome
        run["finished_at"] = time.time()
        self.journal.write(run)
        self._m_outcomes[outcome].inc()
        actions.append(f"outcome={outcome}")
        if self.updater is not None:
            # The run consumed the drift evidence whatever the outcome: a
            # promotion makes it stale, a rejection/rollback keeps the
            # incumbent — fresh evidence must accumulate before the next
            # attempt instead of re-triggering every tick on the same window.
            self.updater.monitor.mark_refreshed(self.service.snapshot.num_users)


def canary_status(directory: str | Path) -> dict:
    """Operator view of the canary rollout in ``directory``.

    Reads the orchestrator journal and the guardrail JSONL (both written by
    :class:`RetrainOrchestrator`) and returns a plain dict: the current run
    and outcome, the canary stage's journaled state, and the latest guardrail
    record.  Powers the ``canary-status`` CLI command; raises nothing on a
    directory with no runs yet (every field is just ``None``/0).
    """
    directory = Path(directory)
    run = OrchestratorJournal(directory / "orchestrator.json").load()
    records: list[dict] = []
    guardrail_path = directory / "canary-guardrails.jsonl"
    if guardrail_path.exists():
        for line in guardrail_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                records.append(json.loads(line))
    canary_stage = None
    if run is not None:
        canary_stage = run.get("stages", {}).get("canary")
    return {
        "directory": str(directory),
        "run_id": None if run is None else run.get("run_id"),
        "outcome": None if run is None else run.get("outcome"),
        "canary_stage": canary_stage,
        "guardrail_records": len(records),
        "latest": records[-1] if records else None,
    }
