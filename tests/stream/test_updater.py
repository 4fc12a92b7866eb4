"""StreamingUpdater: fold-in cycles, CSR/popularity patching, hot swap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import IVFIndex, RecommendationService, build_snapshot
from repro.stream import (
    DriftConfig,
    EventLog,
    FoldInConfig,
    StreamingUpdater,
    live_popularity,
    merge_into_csr,
)


@pytest.fixture()
def snapshot(rng):
    users = rng.normal(size=(20, 8))
    items = rng.normal(size=(30, 8))
    pairs = np.column_stack([rng.integers(0, 20, 120), rng.integers(0, 30, 120)])
    return build_snapshot(users, items, train_pairs=pairs, model_name="test")


@pytest.fixture()
def service(snapshot):
    return RecommendationService(snapshot, default_k=5)


@pytest.fixture()
def rig(service):
    log = EventLog()
    updater = StreamingUpdater(service, log, batch_size=16)
    return service, log, updater


class TestMergeIntoCsr:
    def test_appends_and_sorts(self):
        indptr = np.array([0, 2, 2], dtype=np.int64)
        indices = np.array([1, 4], dtype=np.int64)
        new_indptr, new_indices = merge_into_csr(
            indptr, indices, np.array([[0, 3], [1, 0]]), num_users=2
        )
        np.testing.assert_array_equal(new_indptr, [0, 3, 4])
        np.testing.assert_array_equal(new_indices, [1, 3, 4, 0])

    def test_deduplicates(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([2], dtype=np.int64)
        new_indptr, new_indices = merge_into_csr(
            indptr, indices, np.array([[0, 2], [0, 2]]), num_users=1
        )
        np.testing.assert_array_equal(new_indptr, [0, 1])
        np.testing.assert_array_equal(new_indices, [2])

    def test_grows_user_rows(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        new_indptr, new_indices = merge_into_csr(
            indptr, indices, np.array([[3, 5]]), num_users=4
        )
        np.testing.assert_array_equal(new_indptr, [0, 1, 1, 1, 2])
        np.testing.assert_array_equal(new_indices, [0, 5])

    def test_empty_pairs(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        new_indptr, new_indices = merge_into_csr(
            indptr, indices, np.empty((0, 2), dtype=np.int64), num_users=1
        )
        np.testing.assert_array_equal(new_indptr, indptr)
        np.testing.assert_array_equal(new_indices, indices)


class TestColdToWarm:
    def test_new_user_personalised_after_one_apply(self, rig, snapshot):
        """Acceptance: >= 3 interactions -> model recommendations after apply()."""
        service, _, updater = rig
        new_user = snapshot.num_users + 5
        for item in (2, 11, 23):
            service.record_interaction(new_user, item)
        assert service.recommend(new_user).source == "popularity"
        report = updater.apply()
        assert report.events_applied == 3
        assert report.new_users == 1
        assert report.swapped
        recommendation = service.recommend(new_user)
        assert recommendation.source == "model"
        # Seen items masked even though they arrived via the stream.
        assert not np.isin(recommendation.items, [2, 11, 23]).any()

    def test_gap_users_stay_cold(self, rig, snapshot):
        service, _, updater = rig
        folded_user = snapshot.num_users + 5
        for item in (2, 11, 23):
            service.record_interaction(folded_user, item)
        updater.apply()
        # Ids below the folded one exist in the grown table but have no
        # history; they must keep falling back rather than serve zero vectors.
        gap_user = snapshot.num_users + 2
        assert service.recommend(gap_user).source == "popularity"

    def test_existing_user_updated_and_cache_invalidated(self, rig, snapshot):
        service, _, updater = rig
        before = service.recommend(3)
        assert before.source == "model"
        unseen = [i for i in range(snapshot.num_items) if i not in set(snapshot.train_items(3))]
        for item in unseen[:3]:
            service.record_interaction(3, item)
        report = updater.apply()
        assert report.users_folded_in == 1
        assert report.new_users == 0
        after = service.recommend(3)
        assert after.snapshot_id != before.snapshot_id
        # The newly recorded interactions are now masked out.
        assert not np.isin(after.items, unseen[:3]).any()

    def test_min_interactions_defers_until_enough(self, service, snapshot):
        log = EventLog()
        updater = StreamingUpdater(service, log, min_interactions=3)
        new_user = snapshot.num_users
        service.record_interaction(new_user, 1)
        report = updater.apply()
        assert report.users_folded_in == 0
        assert report.users_skipped == 1
        assert not report.swapped
        assert service.recommend(new_user).source == "popularity"
        # Two more events push the user over the threshold; the deferred
        # event must not be lost.
        service.record_interaction(new_user, 5)
        service.record_interaction(new_user, 9)
        report = updater.apply()
        assert report.users_folded_in == 1
        folded = report.fold_ins[0]
        assert folded.num_interactions == 3


class TestBookkeeping:
    def test_popularity_counts_patched(self, rig, snapshot):
        service, _, updater = rig
        user = snapshot.num_users
        for item in (4, 4, 7):
            service.record_interaction(user, item)
        updater.apply()
        delta = service.snapshot
        assert delta.item_popularity[4] == snapshot.item_popularity[4] + 2
        assert delta.item_popularity[7] == snapshot.item_popularity[7] + 1

    def test_delta_provenance_chain(self, rig, snapshot):
        service, _, updater = rig
        for cycle in range(2):
            user = snapshot.num_users + cycle
            for item in (1, 2, 3):
                service.record_interaction(user, item)
            updater.apply()
        delta = service.snapshot
        assert delta.is_delta
        assert delta.delta_generation == 2
        assert delta.delta_event_range == (3, 6)
        assert delta.base_snapshot_id != snapshot.snapshot_id  # parent is gen-1
        assert not snapshot.is_delta

    def test_event_range_tracks_applied_window(self, rig, snapshot):
        service, log, updater = rig
        log.extend([snapshot.num_users] * 3, [1, 2, 3])
        report = updater.apply()
        assert report.event_range == (0, 3)
        log.extend([snapshot.num_users] * 2, [4, 5])
        report = updater.apply()
        assert report.event_range == (3, 5)
        assert updater.applied_seq == 5
        assert updater.pending() == 0

    def test_max_events_caps_consumption(self, rig, snapshot):
        service, log, updater = rig
        log.extend([snapshot.num_users] * 6, [1, 2, 3, 4, 5, 6])
        report = updater.apply(max_events=4)
        assert report.events_applied == 4
        assert updater.pending() == 2

    def test_out_of_catalogue_item_dropped_not_wedged(self, rig, snapshot):
        # A poison event written straight to the log (bypassing the service's
        # validation) is dropped and counted; later events still fold in.
        service, log, updater = rig
        user = snapshot.num_users
        log.extend([0, user, user, user], [snapshot.num_items + 3, 1, 2, 3])
        report = updater.apply()
        assert report.events_rejected == 1
        assert report.users_folded_in == 1
        assert updater.pending() == 0
        assert service.recommend(user).source == "model"

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_dropped_not_wedged(self, rig, snapshot, weight):
        # A NaN/inf weight would fold into a NaN user row, which the delta
        # snapshot refuses; the event is dropped so the cursor still advances.
        service, log, updater = rig
        user = snapshot.num_users
        service.record_interaction(0, 1, weight=weight)
        for item in (1, 2, 3):
            service.record_interaction(user, item)
        first = updater.apply()
        assert first.events_rejected == 1
        assert first.users_folded_in == 1
        assert updater.pending() == 0
        assert np.array_equal(service.snapshot.user_embeddings[0], snapshot.user_embeddings[0])
        later = user + 1
        for item in (4, 5):
            service.record_interaction(later, item)
        second = updater.apply()
        assert second.events_rejected == 0
        assert second.users_folded_in == 1
        assert service.recommend(later).source == "model"
        assert np.isfinite(service.snapshot.user_embeddings).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_fold_in_rejects_user_not_wedged(self, rig, snapshot):
        # Finite weights large enough to overflow the solve give a non-finite
        # row: that user is rejected, every other user still folds in.
        service, log, updater = rig
        user = snapshot.num_users
        for item in (1, 2, 3):
            service.record_interaction(0, item, weight=1e308)
            service.record_interaction(user, item)
        report = updater.apply()
        assert report.users_rejected == 1
        assert report.events_rejected == 3
        assert report.users_folded_in == 1
        assert updater.pending() == 0
        assert np.array_equal(service.snapshot.user_embeddings[0], snapshot.user_embeddings[0])
        assert service.recommend(user).source == "model"

    def test_absurd_user_id_capped_not_oom(self, snapshot):
        service = RecommendationService(snapshot, default_k=5)
        updater = StreamingUpdater(service, EventLog(), max_new_users=100)
        ok_user = snapshot.num_users + 1
        bad_user = snapshot.num_users + 10**9  # would be an ~8 GB dense table
        for item in (1, 2, 3):
            service.record_interaction(ok_user, item)
            service.record_interaction(bad_user, item)
        report = updater.apply()
        assert report.users_rejected == 1
        assert report.events_rejected == 3
        assert report.users_folded_in == 1
        assert service.snapshot.num_users == ok_user + 1
        assert service.recommend(ok_user).source == "model"

    def test_failed_swap_leaves_events_pending_for_retry(self, rig, snapshot, monkeypatch):
        service, _, updater = rig
        user = snapshot.num_users
        for item in (1, 2, 3):
            service.record_interaction(user, item)

        def boom(*args, **kwargs):
            raise RuntimeError("index rebuild exploded")

        monkeypatch.setattr(service, "swap_snapshot", boom)
        with pytest.raises(RuntimeError, match="exploded"):
            updater.apply()
        # The cursor did not advance: nothing was silently dropped; the drift
        # monitor rolled back the failed attempt's observations.
        assert updater.pending() == 3
        assert updater.monitor.metrics().events_observed == 0
        monkeypatch.undo()
        report = updater.apply()
        assert report.users_folded_in == 1
        assert service.recommend(user).source == "model"
        # The retried window was counted exactly once.
        assert updater.monitor.metrics().events_observed == 3

    def test_growth_cap_anchored_at_base_not_ratcheting(self, snapshot):
        service = RecommendationService(snapshot, default_k=5)
        updater = StreamingUpdater(service, EventLog(), max_new_users=50)
        base = snapshot.num_users
        for item in (1, 2, 3):
            service.record_interaction(base + 40, item)
        assert updater.apply().users_folded_in == 1
        # The table grew to base+41; an id within 50 of the *current* table
        # but past base+50 must still be rejected, or increasing garbage ids
        # would ratchet the dense table forever.
        for item in (1, 2, 3):
            service.record_interaction(base + 60, item)
        report = updater.apply()
        assert report.users_rejected == 1
        assert report.users_folded_in == 0

    def test_trained_embedding_without_history_still_blended(self, rng):
        # A snapshot exported without train_pairs has trained user rows but
        # empty CSR history; fold-in must blend, not overwrite, those rows.
        from repro.serve import build_snapshot
        from repro.stream import FoldInConfig

        users = rng.normal(size=(6, 8))
        items = rng.normal(size=(15, 8))
        snap = build_snapshot(users, items, model_name="no-history")
        service = RecommendationService(snap, default_k=3)
        updater = StreamingUpdater(
            service, EventLog(), fold_in=FoldInConfig(decay=0.5, implicit_weight=0.0)
        )
        for item in (1, 2, 3):
            service.record_interaction(4, item)
        report = updater.apply()
        folded = report.fold_ins[0]
        assert not folded.was_new
        assert report.new_users == 0
        # Half the trained vector survives (decay=0.5 blend with the solve).
        from repro.stream import ridge_fold_in

        solved, _ = ridge_fold_in(items[[1, 2, 3]], l2=0.1)
        np.testing.assert_allclose(
            service.snapshot.user_embeddings[4], 0.5 * users[4] + 0.5 * solved
        )

    def test_export_training_table(self, rig, snapshot):
        from repro.data import RatingTable

        service, log, updater = rig
        base = RatingTable(
            users=[0, 1],
            items=[0, 1],
            ratings=[5.0, 4.0],
            num_users=snapshot.num_users,
            num_items=snapshot.num_items,
        )
        user = snapshot.num_users
        for item in (1, 2, 3):
            service.record_interaction(user, item, weight=4.0)
        updater.apply()
        log.extend([user], [9])  # pending, not applied -> excluded
        grown = updater.export_training_table(base)
        assert len(grown) == 5
        assert grown.num_users == user + 1
        np.testing.assert_array_equal(grown.items[-3:], [1, 2, 3])
        np.testing.assert_array_equal(grown.ratings[-3:], [4.0, 4.0, 4.0])

    def test_export_training_table_excludes_rejected_events(self, snapshot):
        from repro.data import RatingTable

        service = RecommendationService(snapshot, default_k=5)
        log = EventLog()
        updater = StreamingUpdater(service, log, max_new_users=100)
        base = RatingTable(
            users=[0], items=[0], ratings=[5.0],
            num_users=snapshot.num_users, num_items=snapshot.num_items,
        )
        ok_user = snapshot.num_users + 1
        for item in (1, 2, 3):
            service.record_interaction(ok_user, item)
        log.extend([ok_user, 10**12], [snapshot.num_items + 5, 4])  # both rejected
        updater.apply()
        grown = updater.export_training_table(base)
        # Only the 3 valid events joined; the poison item and the absurd user
        # id must not resurface and blow up the retrain's entity counts.
        assert len(grown) == 4
        assert grown.num_users == ok_user + 1
        assert grown.num_items == snapshot.num_items

    def test_run_until_drained(self, rig, snapshot):
        service, log, updater = rig
        users = np.repeat(np.arange(snapshot.num_users, snapshot.num_users + 4), 3)
        log.extend(users, np.tile([1, 2, 3], 4))
        reports = updater.run_until_drained()
        assert updater.pending() == 0
        assert sum(r.users_folded_in for r in reports) == 4


class TestIndexReuse:
    def test_exact_index_carried_across_swap(self, snapshot):
        service = RecommendationService(snapshot, default_k=5)
        index_before = service.index
        updater = StreamingUpdater(service, EventLog())
        for item in (1, 2, 3):
            service.record_interaction(snapshot.num_users, item)
        updater.apply()
        assert service.index is index_before
        assert service.snapshot.item_embeddings is snapshot.item_embeddings

    def test_ivf_index_not_rebuilt(self, snapshot):
        built = []

        def factory(items):
            index = IVFIndex(items, n_probe=2)
            built.append(index)
            return index

        service = RecommendationService(snapshot, index_factory=factory, default_k=5)
        updater = StreamingUpdater(service, EventLog())
        for item in (1, 2, 3):
            service.record_interaction(snapshot.num_users, item)
        updater.apply()
        assert len(built) == 1  # items frozen: the factory never ran again
        assert service.index is built[0]

    def test_reuse_disabled_forces_rebuild(self, snapshot):
        built = []

        def factory(items):
            built.append(items)
            from repro.serve import ExactIndex

            return ExactIndex(items)

        service = RecommendationService(snapshot, index_factory=factory, default_k=5)
        updater = StreamingUpdater(service, EventLog(), reuse_index=False)
        for item in (1, 2, 3):
            service.record_interaction(snapshot.num_users, item)
        updater.apply()
        assert len(built) == 2


class TestDriftIntegration:
    def test_cold_surge_produces_signal(self, snapshot):
        service = RecommendationService(snapshot, default_k=5)
        updater = StreamingUpdater(
            service,
            EventLog(),
            drift=DriftConfig(min_events=3, cold_user_threshold=0.5, kl_threshold=None),
        )
        for item in (1, 2, 3):
            service.record_interaction(snapshot.num_users, item)
        report = updater.apply()
        assert report.refresh_signal is not None
        assert "cold_user_ratio" in report.refresh_signal.reasons

    def test_residuals_reported(self, rig, snapshot):
        service, _, updater = rig
        for item in (1, 2, 3):
            service.record_interaction(snapshot.num_users, item)
        report = updater.apply()
        assert report.mean_residual >= 0.0
        assert updater.monitor.metrics().events_observed == 3


class TestLivePopularity:
    def test_delta_snapshot_not_double_counted(self, snapshot):
        log = EventLog()
        service = RecommendationService(snapshot, default_k=3, event_log=log)
        updater = StreamingUpdater(service, log)
        user = snapshot.num_users
        for item in (4, 4, 7):
            service.record_interaction(user, item)
        updater.apply()
        # Provider built from the *delta* snapshot: the applied events are
        # already inside its popularity counts and must not be added again.
        provider = live_popularity(service.snapshot, log)
        np.testing.assert_array_equal(provider(), service.snapshot.item_popularity)
        # New (unapplied) events still show up on top.
        log.append(user + 1, 7)
        assert provider()[7] == service.snapshot.item_popularity[7] + 1

    def test_fallback_tracks_event_log(self, snapshot):
        log = EventLog()
        service = RecommendationService(snapshot, default_k=3, event_log=log)
        service.set_popularity_provider(live_popularity(snapshot, log))
        cold_user = snapshot.num_users + 99
        # Hammer one mid-tier item via the stream: it must rise to the top of
        # the fallback ranking without any snapshot swap.
        target = int(np.argsort(snapshot.item_popularity)[len(snapshot.item_popularity) // 2])
        for _ in range(int(snapshot.item_popularity.max()) + 5):
            service.record_interaction(cold_user + 1, target)
        recommendation = service.recommend(cold_user)
        assert recommendation.source == "popularity"
        assert recommendation.items[0] == target

    def test_gradient_method_end_to_end(self, snapshot):
        service = RecommendationService(snapshot, default_k=5)
        updater = StreamingUpdater(
            service,
            EventLog(),
            fold_in=FoldInConfig(method="gradient", gradient_steps=30),
        )
        for item in (1, 2, 3):
            service.record_interaction(snapshot.num_users, item)
        report = updater.apply()
        assert report.users_folded_in == 1
        assert service.recommend(snapshot.num_users).source == "model"


class TestValidation:
    def test_bad_batch_size(self, service):
        with pytest.raises(ValueError):
            StreamingUpdater(service, EventLog(), batch_size=0)

    def test_bad_min_interactions(self, service):
        with pytest.raises(ValueError):
            StreamingUpdater(service, EventLog(), min_interactions=0)

    def test_attaches_log_to_service(self, snapshot):
        service = RecommendationService(snapshot)
        log = EventLog()
        StreamingUpdater(service, log)
        assert service.event_log is log

    def test_replacement_updater_resumes_from_delta_provenance(self, rig, snapshot):
        # A new updater over an already-updated service must not re-apply
        # events the serving delta snapshot already absorbed.
        service, log, updater = rig
        user = snapshot.num_users
        for item in (4, 4, 7):
            service.record_interaction(user, item)
        updater.apply()
        popularity_after = service.snapshot.item_popularity.copy()

        replacement = StreamingUpdater(service, log)
        assert replacement.pending() == 0
        report = replacement.apply()
        assert report.events_applied == 0
        np.testing.assert_array_equal(service.snapshot.item_popularity, popularity_after)

    def test_delta_snapshot_with_fresh_log_starts_at_zero(self, rig, snapshot):
        # A delta snapshot served by a NEW process with an empty log: the
        # provenance refers to a different log's numbering, so the cursor
        # clamps to this log's extent instead of skipping its first events.
        service, log, updater = rig
        user = snapshot.num_users
        for item in (1, 2, 3):
            service.record_interaction(user, item)
        updater.apply()

        fresh_log = EventLog()
        fresh_service = RecommendationService(service.snapshot, default_k=5)
        fresh_updater = StreamingUpdater(fresh_service, fresh_log)
        assert fresh_updater.pending() == 0
        other = snapshot.num_users + 3
        for item in (5, 6, 7):
            fresh_service.record_interaction(other, item)
        assert fresh_updater.pending() == 3
        report = fresh_updater.apply()
        assert report.users_folded_in == 1
        assert fresh_service.recommend(other).source == "model"
