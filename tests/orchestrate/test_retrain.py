"""Blue/green orchestrator: gating, rollback, and journaled resume."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.orchestrate import (
    OrchestratorError,
    OrchestratorJournal,
    RetrainConfig,
    RetrainOrchestrator,
    offline_recall,
)
from repro.reliability import FaultInjector, RetryPolicy, inject_faults
from repro.reliability.faults import FAULTS_ENV
from repro.serve import PAD_INDEX, ExactIndex, RecommendationService, Retriever, build_snapshot
from repro.stream.drift import DriftMetrics, RefreshSignal

NUM_USERS, NUM_ITEMS, DIM = 12, 16, 6


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


class Harness:
    """Orchestrator over stub snapshots with scripted recall numbers."""

    def __init__(self, tmp_path, scores: dict[str, float], live_recall=None, **config):
        self.incumbent = make_snapshot(seed=0)
        self.candidate = make_snapshot(seed=1)
        self.scores = scores
        self.service = RecommendationService(self.incumbent, default_k=5)
        self.retrain_calls = 0
        self.evaluate_error: Exception | None = None
        self._live_recall = live_recall
        self.orchestrator = self.build(tmp_path, **config)

    def build(self, tmp_path, **config) -> RetrainOrchestrator:
        # Separate builder so tests can simulate a freshly restarted
        # controller over the same journal directory.
        def retrain_fn(table):
            self.retrain_calls += 1
            return self.candidate

        def evaluate_fn(snapshot, positives, k):
            if self.evaluate_error is not None:
                raise self.evaluate_error
            return self.scores[snapshot.snapshot_id]

        def live_eval_fn(service):
            if callable(self._live_recall):
                return self._live_recall(service)
            if self._live_recall is not None:
                return self._live_recall
            return self.scores[service.snapshot.snapshot_id]

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
            evaluate_fn=evaluate_fn,
            live_eval_fn=live_eval_fn,
        )


class TestLifecycle:
    def test_idle_tick_without_signal(self, tmp_path):
        harness = Harness(tmp_path, scores={})
        report = harness.orchestrator.tick()
        assert report.idle
        assert report.outcome is None
        assert harness.retrain_calls == 0

    def test_promotes_better_candidate(self, tmp_path):
        harness = Harness(
            tmp_path,
            scores={},
        )
        harness.scores = {
            harness.incumbent.snapshot_id: 0.40,
            harness.candidate.snapshot_id: 0.50,
        }
        harness.orchestrator.submit(make_signal())
        report = harness.orchestrator.tick()
        assert report.outcome == "promoted"
        assert harness.service.snapshot.snapshot_id == harness.candidate.snapshot_id
        assert harness.retrain_calls == 1
        state = harness.orchestrator.journal.load()
        assert state["outcome"] == "promoted"
        assert state["stages"]["evaluate"]["promote"] is True
        # A follow-up tick with no new signal is idle — the run is terminal.
        assert harness.orchestrator.tick().idle

    def test_rejects_candidate_below_gate(self, tmp_path):
        harness = Harness(tmp_path, scores={})
        harness.scores = {
            harness.incumbent.snapshot_id: 0.50,
            harness.candidate.snapshot_id: 0.20,
        }
        harness.orchestrator.submit(make_signal())
        report = harness.orchestrator.tick()
        assert report.outcome == "rejected"
        # The incumbent keeps serving; no swap ever happened.
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id
        assert harness.service.stats.snapshot_swaps == 0

    def test_rolls_back_on_post_swap_regression_within_one_tick(self, tmp_path):
        harness = Harness(
            tmp_path,
            scores={},
            live_recall=0.01,  # offline gate is fooled; live eval collapses
        )
        harness.scores = {
            harness.incumbent.snapshot_id: 0.40,
            harness.candidate.snapshot_id: 0.50,
        }
        harness.orchestrator.submit(make_signal())
        report = harness.orchestrator.tick()
        assert report.outcome == "rolled_back"
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id
        state = harness.orchestrator.journal.load()
        assert state["stages"]["watch"]["rolled_back"] is True
        assert state["stages"]["watch"]["reason"] == "eval_regression"
        # Swapped in, then swapped back — two swaps, one tick.
        assert harness.service.stats.snapshot_swaps == 2

    def test_rolls_back_on_breaker_trip(self, tmp_path):
        def tripping_live_eval(service):
            service.breaker.trip()
            return 0.50  # recall looks fine; the breaker is the tell

        harness = Harness(tmp_path, scores={}, live_recall=tripping_live_eval)
        harness.scores = {
            harness.incumbent.snapshot_id: 0.40,
            harness.candidate.snapshot_id: 0.50,
        }
        harness.orchestrator.submit(make_signal())
        report = harness.orchestrator.tick()
        assert report.outcome == "rolled_back"
        assert harness.orchestrator.journal.load()["stages"]["watch"]["reason"] == "breaker_trip"
        assert harness.service.snapshot.snapshot_id == harness.incumbent.snapshot_id


class TestResume:
    def test_restarted_controller_resumes_without_retraining_again(self, tmp_path):
        harness = Harness(tmp_path, scores={})
        harness.scores = {
            harness.incumbent.snapshot_id: 0.40,
            harness.candidate.snapshot_id: 0.50,
        }
        harness.evaluate_error = RuntimeError("evaluator crashed")
        harness.orchestrator.submit(make_signal())
        with pytest.raises(OrchestratorError, match="resumes"):
            harness.orchestrator.tick()
        assert harness.retrain_calls == 1  # retrain completed and was journaled

        # A brand-new controller process over the same directory.
        harness.evaluate_error = None
        restarted = harness.build(tmp_path)
        report = restarted.tick()
        assert any("resumed" in action for action in report.actions)
        assert report.outcome == "promoted"
        assert harness.retrain_calls == 1  # the journaled stage was NOT rerun
        assert harness.service.snapshot.snapshot_id == harness.candidate.snapshot_id

    def test_crash_before_stage_commit_reruns_that_stage(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "1")
        harness = Harness(tmp_path, scores={})
        harness.scores = {
            harness.incumbent.snapshot_id: 0.40,
            harness.candidate.snapshot_id: 0.50,
        }
        harness.orchestrator.submit(make_signal())
        # Die after retraining but before the stage reaches the journal.
        with inject_faults(FaultInjector().arm("orchestrator.commit.retrain")):
            with pytest.raises(OrchestratorError):
                harness.orchestrator.tick()
        assert harness.retrain_calls == 1

        restarted = harness.build(tmp_path)
        report = restarted.tick()
        # At-least-once semantics: the uncommitted stage runs again …
        assert harness.retrain_calls == 2
        # … and the run still converges.
        assert report.outcome == "promoted"

    def test_resumed_promotion_is_reapplied_to_a_fresh_service(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "1")
        harness = Harness(tmp_path, scores={})
        harness.scores = {
            harness.incumbent.snapshot_id: 0.40,
            harness.candidate.snapshot_id: 0.50,
        }
        harness.orchestrator.submit(make_signal())
        # Die between the journaled promotion and the watch stage.
        with inject_faults(FaultInjector().arm("orchestrator.watch")):
            with pytest.raises(OrchestratorError):
                harness.orchestrator.tick()

        # The restarted controller finds a fresh service still serving the
        # incumbent (a real restart would reload the last-known snapshot).
        harness.service = RecommendationService(harness.incumbent, default_k=5)
        restarted = harness.build(tmp_path)
        report = restarted.tick()
        assert report.outcome == "promoted"
        assert any("re-applied" in action for action in report.actions)
        assert harness.service.snapshot.snapshot_id == harness.candidate.snapshot_id

    def test_unreadable_journal_is_refused_loudly(self, tmp_path):
        harness = Harness(tmp_path, scores={})
        harness.orchestrator.journal.path.parent.mkdir(parents=True, exist_ok=True)
        harness.orchestrator.journal.path.write_text("{not json")
        with pytest.raises(OrchestratorError, match="unreadable"):
            harness.orchestrator.tick()


class TestJournal:
    def test_roundtrip_and_clear(self, tmp_path):
        journal = OrchestratorJournal(tmp_path / "j" / "state.json")
        assert journal.load() is None
        journal.write({"run_id": "r1", "outcome": None})
        assert journal.load() == {"run_id": "r1", "outcome": None}
        journal.clear()
        assert journal.load() is None

    def test_write_is_atomic_json(self, tmp_path):
        journal = OrchestratorJournal(tmp_path / "state.json")
        journal.write({"stages": {"retrain": {"done": True}}})
        # The on-disk file is always a complete document.
        assert json.loads(journal.path.read_text())["stages"]["retrain"]["done"]


class TestWorkerRetrain:
    def test_retrain_in_worker_process(self, tmp_path):
        harness = Harness(tmp_path, scores={}, use_worker=True, worker_timeout=60.0)
        harness.scores = {
            harness.incumbent.snapshot_id: 0.40,
            harness.candidate.snapshot_id: 0.50,
        }
        harness.orchestrator.submit(make_signal())
        report = harness.orchestrator.tick()
        assert report.outcome == "promoted"
        # The fork ran in a child: the parent's counter never incremented,
        # but the candidate artifact it published was picked up and promoted.
        assert harness.service.snapshot.snapshot_id == harness.candidate.snapshot_id


class TestOfflineRecall:
    def test_perfect_and_empty_positives(self):
        users = np.eye(4, dtype=np.float64)
        items = np.eye(4, dtype=np.float64) * 10.0
        snapshot = build_snapshot(users, items)
        # User u's best item is item u by construction.
        assert offline_recall(snapshot, {0: np.array([0])}, k=1) == 1.0
        assert offline_recall(snapshot, {0: np.array([3])}, k=1) == 0.0
        assert offline_recall(snapshot, {}, k=1) == 0.0
        # Users outside the snapshot are skipped, not crashed on.
        assert offline_recall(snapshot, {99: np.array([0])}, k=1) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_per_user_mean(self, seed):
        """PAD-padded rows, empty positives and users outside the table."""
        rng = np.random.default_rng(seed)
        k = 10
        # Users 0-2 trained on 12 of 16 items: 4 candidates, 6 PAD slots.
        heavy = np.array([[user, item] for user in range(3) for item in range(12)])
        light = np.stack([rng.integers(3, NUM_USERS, 20), rng.integers(0, NUM_ITEMS, 20)], axis=1)
        snapshot = build_snapshot(
            rng.normal(size=(NUM_USERS, DIM)),
            rng.normal(size=(NUM_ITEMS, DIM)),
            train_pairs=np.concatenate([heavy, light]),
        )
        positives = {user: rng.integers(0, NUM_ITEMS, size=int(rng.integers(1, 6))) for user in range(NUM_USERS)}
        positives[4] = np.array([], dtype=np.int64)
        positives[NUM_USERS + 5] = np.array([1, 2])

        retriever = Retriever(snapshot, ExactIndex(snapshot.item_embeddings), mask_train=True)
        per_user = []
        for user, relevant in positives.items():
            if not len(relevant) or user >= NUM_USERS:
                continue
            indices, _ = retriever.topk_for_users(np.array([user]), k)
            top = indices[0][indices[0] != PAD_INDEX]
            per_user.append(int(np.isin(top, relevant).sum()) / np.unique(relevant).size)
        assert (retriever.topk_for_users(np.arange(3), k)[0] == PAD_INDEX).sum() == 18
        assert offline_recall(snapshot, positives, k) == float(np.mean(per_user))

    def test_masks_training_history(self):
        users = np.eye(4, dtype=np.float64)
        items = np.eye(4, dtype=np.float64) * 10.0
        pairs = np.array([[0, 0]])  # user 0 already trained on item 0
        snapshot = build_snapshot(users, items, train_pairs=pairs)
        # Item 0 is masked out for user 0, so its held-out "positive" at
        # item 0 can never be retrieved — recall drops to 0.
        assert offline_recall(snapshot, {0: np.array([0])}, k=1) == 0.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"min_recall_ratio": -0.1},
            {"rollback_tolerance": 1.5},
            {"worker_timeout": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetrainConfig(**kwargs)
