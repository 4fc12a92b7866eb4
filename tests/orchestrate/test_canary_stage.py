"""The orchestrator's multi-tick canary stage: ramp, abort, resume, schedule."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.orchestrate import (
    OrchestratorError,
    RetrainConfig,
    RetrainOrchestrator,
    RetrainScheduler,
    canary_status,
)
from repro.reliability import FaultInjector, RetryPolicy, inject_faults
from repro.reliability.faults import FAULTS_ENV
from repro.serve import RecommendationService, build_snapshot
from repro.serve.canary import GuardrailPolicy
from repro.stream.drift import DriftMetrics, RefreshSignal

NUM_USERS, NUM_ITEMS, DIM = 12, 16, 6
ALL_USERS = list(range(NUM_USERS))

#: Permissive guardrails: seed-0 vs seed-1 snapshots disagree heavily on
#: rankings, so promote-path tests must not gate on overlap.
LENIENT = GuardrailPolicy(min_samples=8, min_abort_samples=4, min_overlap=0.0)
#: Overlap gate no random candidate can pass — the deterministic abort lever.
STRICT_OVERLAP = GuardrailPolicy(min_samples=8, min_abort_samples=4, min_overlap=0.99)


def make_snapshot(seed: int):
    rng = np.random.default_rng(seed)
    pairs = np.stack(
        [np.repeat(np.arange(NUM_USERS), 2), np.arange(2 * NUM_USERS) % NUM_ITEMS],
        axis=1,
    )
    return build_snapshot(
        rng.normal(size=(NUM_USERS, DIM)),
        rng.normal(size=(NUM_ITEMS, DIM)),
        train_pairs=pairs,
    )


def make_signal(seq: int = 100) -> RefreshSignal:
    return RefreshSignal(
        reasons=("popularity_kl",),
        metrics=DriftMetrics(
            events_observed=60, popularity_kl=1.0, mean_residual=0.0, cold_user_ratio=0.0
        ),
        as_of_seq=seq,
    )


class CanaryHarness:
    """Orchestrator with the canary stage on and scripted live traffic."""

    def __init__(self, tmp_path, *, traffic_users=ALL_USERS, scheduler=None, **config):
        self.incumbent = make_snapshot(seed=0)
        self.candidate = make_snapshot(seed=1)
        self.service = RecommendationService(self.incumbent, default_k=5)
        self.scores = {
            self.incumbent.snapshot_id: 0.40,
            self.candidate.snapshot_id: 0.50,  # offline gate always passes
        }
        self.traffic_users = list(traffic_users)
        self.served: list[list] = []  # every batch of answers users received
        self.retrain_calls = 0
        config.setdefault("canary_fractions", (0.5, 1.0))
        config.setdefault("canary_policy", LENIENT)
        self.config = config
        self.orchestrator = self.build(tmp_path, scheduler=scheduler)

    def build(self, tmp_path, scheduler=None, **overrides) -> RetrainOrchestrator:
        # Rebuilds (fresh-controller simulation) reuse the harness config so a
        # "restarted process" runs the same canary setup as the dead one.
        config = {**self.config, **overrides}
        def retrain_fn(table):
            self.retrain_calls += 1
            return self.candidate

        def traffic(splitter):
            if self.traffic_users:
                self.served.append(splitter.recommend_many(self.traffic_users, k=5))

        return RetrainOrchestrator(
            self.service,
            retrain_fn=retrain_fn,
            base_table=None,
            eval_positives={0: np.array([1, 2])},
            config=RetrainConfig(
                directory=tmp_path,
                retry=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002),
                **config,
            ),
            evaluate_fn=lambda snapshot, positives, k: self.scores[snapshot.snapshot_id],
            live_eval_fn=lambda service: self.scores[service.snapshot.snapshot_id],
            scheduler=scheduler,
            canary_traffic_fn=traffic,
        )

    def run_to_outcome(self, max_ticks: int = 50):
        reports = []
        for _ in range(max_ticks):
            report = self.orchestrator.tick()
            reports.append(report)
            if report.outcome is not None:
                return report, reports
        raise AssertionError(f"no outcome after {max_ticks} ticks")


class TestStageFlow:
    def test_no_fractions_skips_stage_and_promotes(self, tmp_path):
        harness = CanaryHarness(tmp_path, canary_fractions=())
        harness.orchestrator.submit(make_signal())
        report = harness.orchestrator.tick()
        assert report.outcome == "promoted"
        stage = harness.orchestrator.journal.load()["stages"]["canary"]
        assert stage == {"done": True, "decision": "skipped", "ticks": 0}
        # No guardrail flight recorder for a skipped stage.
        assert not (tmp_path / "canary-guardrails.jsonl").exists()

    def test_multi_tick_ramp_then_promote(self, tmp_path):
        harness = CanaryHarness(tmp_path)
        harness.orchestrator.submit(make_signal())
        first = harness.orchestrator.tick()
        # The canary holds the run open: no outcome, evidence journaled.
        assert first.outcome is None and not first.idle
        in_flight = harness.orchestrator.journal.load()
        assert in_flight["outcome"] is None
        assert in_flight["stages"]["canary"]["done"] is False
        assert in_flight["stages"]["canary"]["ticks"] >= 1
        # The incumbent serves throughout the shadow rollout.
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id

        report, reports = harness.run_to_outcome()
        assert report.outcome == "promoted"
        assert len(reports) >= 1  # took more ticks than the first
        state = harness.orchestrator.journal.load()
        stage = state["stages"]["canary"]
        assert stage["done"] is True
        assert stage["decision"] == "promote"
        assert stage["ticks"] >= 2
        assert stage["guardrails"]["samples"] >= LENIENT.min_samples
        assert any("canary ramped" in a for r in [first, *reports] for a in r.actions)
        assert harness.service.snapshot.snapshot_id == harness.candidate.snapshot_id
        # One guardrail record per canary tick, ending in the promote.
        lines = (tmp_path / "canary-guardrails.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == stage["ticks"]
        assert records[-1]["decision"] == "promote"
        assert {r["decision"] for r in records[:-1]} <= {"extend", "ramp"}

    def test_guardrail_breach_aborts_with_incumbent_serving(self, tmp_path):
        harness = CanaryHarness(tmp_path, canary_policy=STRICT_OVERLAP)
        harness.orchestrator.submit(make_signal())
        report, _ = harness.run_to_outcome()
        assert report.outcome == "aborted"
        stage = harness.orchestrator.journal.load()["stages"]["canary"]
        assert stage["decision"] == "abort"
        assert any("overlap" in reason for reason in stage["reasons"])
        # The candidate never owned traffic: zero swaps, incumbent serving.
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id
        assert harness.service.stats.snapshot_swaps == 0

    def test_no_traffic_times_out_into_abort(self, tmp_path):
        harness = CanaryHarness(tmp_path, traffic_users=[], canary_max_ticks=3)
        harness.orchestrator.submit(make_signal())
        report, reports = harness.run_to_outcome(max_ticks=5)
        assert report.outcome == "aborted"
        assert len(reports) == 3
        stage = harness.orchestrator.journal.load()["stages"]["canary"]
        assert any("no verdict" in reason for reason in stage["reasons"])
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id

    def test_canary_mode_serves_candidate_to_cohort_only(self, tmp_path):
        harness = CanaryHarness(tmp_path, canary_mode="canary", canary_fractions=(0.5,))
        harness.orchestrator.submit(make_signal())
        harness.orchestrator.tick()
        splitter = harness.orchestrator.active_splitter
        assert splitter is not None and splitter.mode == "canary"
        results = splitter.recommend_many(ALL_USERS, k=5)
        for user, rec in zip(ALL_USERS, results):
            expected = (
                harness.candidate.snapshot_id
                if splitter.in_cohort(user)
                else harness.incumbent.snapshot_id
            )
            assert rec.snapshot_id == expected
        # Both arms exist at fraction 0.5 over 12 users.
        assert any(splitter.in_cohort(u) for u in ALL_USERS)
        assert not all(splitter.in_cohort(u) for u in ALL_USERS)


class TestResumeMidCanary:
    def test_restarted_controller_keeps_cohort_and_evidence(self, tmp_path):
        # The cohort is a hash of the run id, which names the incumbent's
        # snapshot id.  Two ticks of ALL_USERS traffic must not ramp the
        # fraction, whatever cohort that hash draws, or the resumed tick would
        # widen the cohort it is compared against.
        harness = CanaryHarness(
            tmp_path,
            canary_policy=GuardrailPolicy(
                min_samples=2 * len(ALL_USERS) + 1, min_abort_samples=4, min_overlap=0.0
            ),
        )
        harness.orchestrator.submit(make_signal())
        harness.orchestrator.tick()  # in flight: evidence journaled
        splitter = harness.orchestrator.active_splitter
        cohort_before = {u: splitter.in_cohort(u) for u in ALL_USERS}
        samples_before = splitter.stats.samples
        assert samples_before > 0

        # A brand-new controller process over the same journal directory.
        restarted = harness.build(tmp_path)
        harness.orchestrator = restarted
        report = restarted.tick()
        assert any("resumed" in action for action in report.actions)
        resumed = restarted.active_splitter
        # Same run-id salt ⇒ no user flaps arms across the restart …
        assert {u: resumed.in_cohort(u) for u in ALL_USERS} == cohort_before
        # … and the journaled guardrail evidence carried over and grew.
        assert resumed.stats.samples > samples_before
        assert harness.retrain_calls == 1  # the journaled retrain was not rerun

        final, _ = harness.run_to_outcome()
        assert final.outcome == "promoted"

    def test_crash_before_progress_commit_reuses_prior_evidence(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "1")
        harness = CanaryHarness(tmp_path)
        harness.orchestrator.submit(make_signal())
        harness.orchestrator.tick()
        journaled = harness.orchestrator.journal.load()["stages"]["canary"]

        # Die after collecting a tick of evidence, before it reaches disk.
        with inject_faults(FaultInjector().arm("orchestrator.commit.canary_progress")):
            with pytest.raises(OrchestratorError, match="resumes"):
                harness.orchestrator.tick()
        # The journal still holds the last *committed* tick, nothing torn.
        assert harness.orchestrator.journal.load()["stages"]["canary"] == journaled

        restarted = harness.build(tmp_path)
        harness.orchestrator = restarted
        restored = restarted.tick()
        assert any("resumed" in action for action in restored.actions)
        final, _ = harness.run_to_outcome()
        assert final.outcome == "promoted"

    def test_pre_canary_journal_gets_default_stage(self, tmp_path):
        # A journal written by the pre-canary controller has no "canary" key;
        # the resume path must default it rather than KeyError.
        harness = CanaryHarness(tmp_path, canary_fractions=())
        harness.orchestrator.submit(make_signal())
        harness.orchestrator.tick()
        state = harness.orchestrator.journal.load()
        state["outcome"] = None
        del state["stages"]["canary"]
        del state["stages"]["promote"]
        del state["stages"]["watch"]
        harness.orchestrator.journal.write(state)

        restarted = harness.build(tmp_path)
        harness.orchestrator = restarted
        report = restarted.tick()
        assert report.outcome == "promoted"
        assert restarted.journal.load()["stages"]["canary"]["decision"] == "skipped"


class TestScheduledRuns:
    def make_scheduler(self, start=1000.0):
        clock = {"now": start}
        return clock, RetrainScheduler("@every 60s", clock=lambda: clock["now"])

    def test_scheduler_firing_starts_a_run(self, tmp_path):
        clock, scheduler = self.make_scheduler()
        harness = CanaryHarness(tmp_path, canary_fractions=(), scheduler=scheduler)
        assert harness.orchestrator.tick().idle  # nothing due yet
        clock["now"] += 61
        report = harness.orchestrator.tick()
        assert report.outcome == "promoted"
        assert harness.orchestrator.journal.load()["signal"]["reasons"] == ["scheduled"]
        assert scheduler.fired == 1

    def test_firing_during_in_flight_canary_is_deduped(self, tmp_path):
        clock, scheduler = self.make_scheduler()
        harness = CanaryHarness(tmp_path, scheduler=scheduler)
        clock["now"] += 61
        first = harness.orchestrator.tick()  # scheduled run starts, canary in flight
        assert first.outcome is None and not first.idle
        run_id = first.run_id

        clock["now"] += 61  # a second firing lands mid-rollout
        report = harness.orchestrator.tick()
        assert any("deduped" in action for action in report.actions)
        assert report.run_id == run_id  # no second run was started
        assert scheduler.skipped == 1 and scheduler.fired == 1

        final, _ = harness.run_to_outcome()
        assert final.outcome == "promoted"
        assert harness.retrain_calls == 1


class TestCanaryStatus:
    def test_empty_directory(self, tmp_path):
        status = canary_status(tmp_path)
        assert status["run_id"] is None
        assert status["outcome"] is None
        assert status["canary_stage"] is None
        assert status["guardrail_records"] == 0
        assert status["latest"] is None

    def test_aborted_rollout_is_reported(self, tmp_path):
        harness = CanaryHarness(tmp_path, canary_policy=STRICT_OVERLAP)
        harness.orchestrator.submit(make_signal())
        report, _ = harness.run_to_outcome()
        status = canary_status(tmp_path)
        assert status["run_id"] == report.run_id
        assert status["outcome"] == "aborted"
        assert status["canary_stage"]["decision"] == "abort"
        assert status["guardrail_records"] >= 1
        assert status["latest"]["decision"] == "abort"
        assert status["latest"]["guardrails"]["samples"] > 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"canary_mode": "both"},
            {"canary_mirror_queue": 0},
            {"canary_max_ticks": 0},
        ],
    )
    def test_rejects_bad_canary_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetrainConfig(**kwargs)
