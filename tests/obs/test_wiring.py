"""End-to-end wiring: real subsystems emit real series when metrics are on.

Components bind their metric handles at construction time, so every test here
constructs its subject *inside* ``use_registry``/``use_tracer`` scopes — the
same discipline operators must follow (enable observability before building
the service).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import use_registry
from repro.obs.tracing import Tracer, use_tracer
from repro.serve import RecommendationService, create_snapshot
from repro.stream import EventLog, StreamingUpdater


@pytest.fixture()
def snapshot(lightgcn_backbone):
    return create_snapshot(lightgcn_backbone)


class TestServiceWiring:
    def test_request_metrics_flow(self, snapshot):
        with use_registry() as registry:
            service = RecommendationService(snapshot, default_k=5)
            service.recommend_many([0, 1, 0], k=5)
            assert registry.value("serve.queries.total") == 3
            latency = registry.get("serve.request.latency_seconds")
            assert latency.count == 1
            assert latency.sum > 0.0
            batch = registry.get("serve.batch.size")
            assert batch.count == 1

    def test_cache_series_labeled_by_snapshot(self, snapshot):
        with use_registry() as registry:
            service = RecommendationService(snapshot, default_k=5, cache_size=64)
            labels = {"snapshot": snapshot.snapshot_id}
            service.recommend(0, k=5)
            service.recommend(0, k=5)
            assert registry.value("serve.cache.misses.total", labels=labels) == 1
            assert registry.value("serve.cache.hits.total", labels=labels) == 1

    def test_fallbacks_counted(self, snapshot):
        with use_registry() as registry:
            service = RecommendationService(snapshot, default_k=5)
            service.recommend(snapshot.num_users + 50, k=5)  # unknown -> popularity
            assert registry.value("serve.fallbacks.total") == 1

    def test_spans_describe_the_request(self, snapshot):
        with use_tracer(Tracer()) as tracer:
            service = RecommendationService(snapshot, default_k=5)
            service.recommend_many([0, 1], k=5)
            names = {s.name for s in tracer.spans}
            assert "serve.recommend_many" in names
            assert "serve.retrieval" in names
            retrieval = next(s for s in tracer.spans if s.name == "serve.retrieval")
            assert retrieval.path == ("serve.recommend_many", "serve.retrieval")

    def test_ivf_search_metrics(self, snapshot):
        from repro.serve import IVFIndex

        with use_registry() as registry:
            # Untuned, so the first batch searches the index (and tunes it):
            # a tuned index hands batches this small to exact scoring.
            index = IVFIndex(snapshot.item_embeddings)
            service = RecommendationService(snapshot, index=index, default_k=5)
            service.recommend_many([0, 1, 2], k=5)
            assert registry.value("ivf.searches.total") >= 1
            probes = registry.get("ivf.probe.count")
            assert probes.count >= 1
            assert registry.value("ivf.cells.scanned.total") >= 1
            assert registry.value("ivf.items.scanned.total") >= 1


class TestWalWiring:
    def test_append_and_fsync_counted(self, tmp_path):
        with use_registry() as registry:
            log = EventLog.open(tmp_path / "events.wal")
            log.append(1, 2)
            log.extend([3, 4], [5, 6])
            assert registry.value("wal.events.appended.total") == 3
            latency = registry.get("wal.append.latency_seconds")
            assert latency.count == 2  # one append + one extend batch
            assert registry.value("wal.fsync.total") >= 2

    def test_recovery_truncation_counted(self, tmp_path):
        path = tmp_path / "events.wal"
        EventLog.open(path).append(1, 2)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # torn tail from a crashed writer
        with use_registry() as registry:
            with pytest.warns(Warning):
                recovered = EventLog.open(path)
            assert len(recovered) == 1
            assert registry.value("wal.recovery.truncations.total") == 1


class TestStreamWiring:
    def test_update_cycle_metrics(self, snapshot):
        with use_registry() as registry:
            service = RecommendationService(snapshot, default_k=5)
            updater = StreamingUpdater(
                service, EventLog(), batch_size=16, min_interactions=1
            )
            user = snapshot.num_users  # brand-new user folds in
            for item in (0, 1, 2):
                service.record_interaction(user, item)
            report = updater.apply()
            assert report.events_applied == 3
            assert registry.value("stream.cycles.total") == 1
            assert registry.value("stream.events.applied.total") == 3
            assert registry.value("stream.users.folded.total") >= 1
            assert registry.value("stream.events.per_second") > 0
            residual = registry.get("stream.foldin.residual")
            assert residual.count >= 1


class TestOrchestratorWiring:
    def test_stage_durations_and_outcome(self, snapshot, tmp_path):
        from repro.orchestrate.retrain import RetrainConfig, RetrainOrchestrator
        from repro.stream.drift import RefreshSignal

        def fake_retrain(table):
            return create_snapshot_variant(snapshot)

        with use_registry() as registry:
            service = RecommendationService(snapshot, default_k=5)
            orchestrator = RetrainOrchestrator(
                service,
                retrain_fn=fake_retrain,
                base_table=None,
                eval_positives={0: np.array([1, 2])},
                config=RetrainConfig(directory=tmp_path, verify_snapshots=False),
            )
            signal = RefreshSignal(
                reasons=("test",), as_of_seq=1, metrics=orchestrator_metrics()
            )
            orchestrator.submit(signal)
            report = orchestrator.tick()
            assert report.outcome in {"promoted", "rejected", "rolled_back"}
            assert registry.value("orchestrate.ticks.total") == 1
            assert registry.value(
                "orchestrate.runs.total", labels={"outcome": report.outcome}
            ) == 1
            retrain_hist = registry.get(
                "orchestrate.stage.duration_seconds", labels={"stage": "retrain"}
            )
            assert retrain_hist.count == 1
            evaluate_hist = registry.get(
                "orchestrate.stage.duration_seconds", labels={"stage": "evaluate"}
            )
            assert evaluate_hist.count == 1


def create_snapshot_variant(snapshot):
    """A copy of ``snapshot`` with a different id (simulates a retrain)."""
    from repro.serve import build_snapshot

    return build_snapshot(
        snapshot.user_embeddings + 0.5,
        snapshot.item_embeddings,
        model_name="variant",
    )


def orchestrator_metrics():
    """A minimal drift-metrics payload accepted by RefreshSignal."""
    from repro.stream.drift import DriftMetrics

    return DriftMetrics(
        events_observed=1, popularity_kl=0.0, mean_residual=0.0, cold_user_ratio=0.0
    )
