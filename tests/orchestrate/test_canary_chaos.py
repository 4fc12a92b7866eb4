"""Chaos: a misbehaving candidate must abort the canary, never hurt users.

The acceptance scenario for the canary subsystem: with ``REPRO_FAULTS``
injecting candidate-side errors and latency during shadow and canary
rollouts, the analyzer aborts, the incumbent keeps serving (no swap to roll
back — the candidate never owned the traffic), and **zero user-facing
queries fail**: every batch routed through the splitter comes back complete,
degraded at worst, while the chaos rages on the candidate arm.
"""

from __future__ import annotations

import pytest
from test_canary_stage import ALL_USERS, CanaryHarness, make_signal

from repro.reliability import FaultInjector, inject_faults
from repro.reliability.faults import FAULTS_ENV
from repro.serve.canary import GuardrailPolicy

#: Tight evidence thresholds so chaos runs converge in a handful of ticks.
CHAOS_POLICY = GuardrailPolicy(
    min_samples=8, min_abort_samples=4, min_overlap=0.0, max_error_rate=0.05
)


def always(site: str, **kwargs) -> FaultInjector:
    """An injector where every call at ``site`` fires (no at/times cap)."""
    return FaultInjector().arm(site, at=None, times=None, probability=1.0, **kwargs)


def assert_no_user_facing_failures(harness: CanaryHarness) -> None:
    """Every served batch is complete: right size, k items, a source set."""
    assert harness.served, "chaos run served no traffic at all"
    for batch in harness.served:
        assert len(batch) == len(harness.traffic_users)
        for rec in batch:
            assert len(rec.items) == 5
            assert rec.source in {"model", "popularity"}


class TestCandidateErrorChaos:
    def test_shadow_rollout_aborts_on_error_rate(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "1")
        harness = CanaryHarness(tmp_path, canary_policy=CHAOS_POLICY)
        harness.orchestrator.submit(make_signal())
        with inject_faults(always("canary.candidate")):
            report, _ = harness.run_to_outcome()
        assert report.outcome == "aborted"
        stage = harness.orchestrator.journal.load()["stages"]["canary"]
        assert stage["decision"] == "abort"
        assert any("error rate" in reason for reason in stage["reasons"])
        assert stage["guardrails"]["error_rate"] == 1.0
        # Shadow mode: users only ever saw the incumbent; chaos was invisible.
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id
        assert harness.service.stats.snapshot_swaps == 0
        assert_no_user_facing_failures(harness)
        for batch in harness.served:
            assert all(rec.snapshot_id == harness.incumbent.snapshot_id for rec in batch)

    def test_canary_rollout_degrades_cohort_and_aborts(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "1")
        harness = CanaryHarness(
            tmp_path, canary_mode="canary", canary_policy=CHAOS_POLICY
        )
        harness.orchestrator.submit(make_signal())
        with inject_faults(always("canary.candidate")):
            report, _ = harness.run_to_outcome()
        assert report.outcome == "aborted"
        # Cohort users rode through the outage on popularity answers from the
        # incumbent arm — degraded, never dropped.
        assert_no_user_facing_failures(harness)
        cohort_answers = [
            rec
            for batch in harness.served
            for rec in batch
            if rec.source == "popularity"
        ]
        assert cohort_answers, "the chaos never touched a cohort user"
        assert all(
            rec.snapshot_id == harness.incumbent.snapshot_id
            for rec in cohort_answers
        )
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id
        assert harness.service.stats.snapshot_swaps == 0


class TestCandidateLatencyChaos:
    def test_brownout_trips_latency_guardrail(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "1")
        harness = CanaryHarness(tmp_path, canary_policy=CHAOS_POLICY)
        harness.orchestrator.submit(make_signal())
        # The candidate answers — slowly. 50ms per batch is far above the
        # 2ms absolute floor and >3x any healthy in-process primary call.
        with inject_faults(always("canary.candidate", mode="delay", delay=0.05)):
            report, _ = harness.run_to_outcome()
        assert report.outcome == "aborted"
        stage = harness.orchestrator.journal.load()["stages"]["canary"]
        assert any("latency" in reason for reason in stage["reasons"])
        assert stage["guardrails"]["error_rate"] == 0.0  # slow, not failing
        assert stage["guardrails"]["latency_ratio"] > CHAOS_POLICY.max_latency_ratio
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id
        assert_no_user_facing_failures(harness)


class TestKilledControllerChaos:
    def test_controller_killed_mid_canary_resumes_and_still_aborts(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "1")
        # The cohort is a hash of the run id, which names the incumbent's
        # snapshot id.  No single tick of ALL_USERS traffic may settle the
        # canary, whatever cohort that hash draws, so the controller dies
        # mid-rollout; abort still engages before any ramp.
        one_tick_short = len(ALL_USERS) + 1
        policy = GuardrailPolicy(
            min_samples=one_tick_short, min_abort_samples=one_tick_short,
            min_overlap=0.0, max_error_rate=0.05,
        )
        harness = CanaryHarness(tmp_path, canary_policy=policy)
        harness.orchestrator.submit(make_signal())
        injector = FaultInjector()
        injector.arm("canary.candidate", at=None, times=None, probability=1.0)
        injector.arm("orchestrator.canary", at=2)  # die on the second tick
        from repro.orchestrate import OrchestratorError

        with inject_faults(injector):
            harness.orchestrator.tick()  # tick 1: evidence accumulates
            cohort_before = {
                u: harness.orchestrator.active_splitter.in_cohort(u) for u in ALL_USERS
            }
            with pytest.raises(OrchestratorError, match="resumes"):
                harness.orchestrator.tick()  # tick 2: controller dies

        # Fresh controller, chaos still raging on the candidate arm.
        restarted = harness.build(tmp_path)
        harness.orchestrator = restarted
        with inject_faults(always("canary.candidate")):
            report, _ = harness.run_to_outcome()
        assert report.outcome == "aborted"
        # The resumed rollout kept the exact same cohort (salted hash) …
        resumed_state = restarted.journal.load()["stages"]["canary"]
        assert resumed_state["decision"] == "abort"
        splitter_salt = report.run_id
        from repro.serve.canary import cohort_hash

        fractions = harness.config["canary_fractions"]
        assert cohort_before == {
            u: cohort_hash(splitter_salt, u) < fractions[0] for u in ALL_USERS
        }
        # … and users never noticed any of it.
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id
        assert_no_user_facing_failures(harness)
