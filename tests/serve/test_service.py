"""RecommendationService: batching, caching, cold start, snapshot swap."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import (
    IVFIndex,
    LRUCache,
    Recommendation,
    RecommendationService,
    create_snapshot,
)
from repro.serve.retrieval import PAD_INDEX


@pytest.fixture()
def snapshot(lightgcn_backbone):
    return create_snapshot(lightgcn_backbone)


@pytest.fixture()
def service(snapshot):
    return RecommendationService(snapshot, default_k=8)


class TestLRUCache:
    def test_get_put(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes the eviction victim
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_zero_size_disables(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_eviction_is_strictly_least_recently_used(self):
        # Both get() and put() refresh recency; victims fall in access order.
        cache = LRUCache(maxsize=3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")          # order: b, c, a
        cache.put("b", "b2")    # put refreshes too -> order: c, a, b
        cache.put("d", "d")     # evicts "c", the true LRU
        assert cache.get("c") is None
        assert cache.get("a") == "a"
        assert cache.get("b") == "b2"
        assert cache.get("d") == "d"

    def test_eviction_chain_under_pressure(self):
        cache = LRUCache(maxsize=2)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 2
        assert cache.get(8) == 8
        assert cache.get(9) == 9
        assert all(cache.get(i) is None for i in range(8))

    def test_clear(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.clear()
        assert cache.get("a") is None


class TestRecommend:
    def test_matches_retriever(self, service, snapshot):
        recommendation = service.recommend(0, k=5)
        indices, _ = service.retriever.topk_for_users([0], 5)
        valid = indices[0][indices[0] != -1]
        np.testing.assert_array_equal(recommendation.items, valid)
        assert recommendation.source == "model"
        assert recommendation.snapshot_id == snapshot.snapshot_id

    def test_never_recommends_seen_items(self, service, snapshot):
        for user in range(snapshot.num_users):
            recommendation = service.recommend(user, k=10)
            if recommendation.source == "model":
                assert not np.isin(recommendation.items, snapshot.train_items(user)).any()

    def test_cache_hit_on_repeat(self, service):
        first = service.recommend(1)
        assert service.cache.hits == 0
        second = service.recommend(1)
        assert service.cache.hits == 1
        assert first is second

    def test_different_k_not_conflated(self, service):
        a = service.recommend(1, k=3)
        b = service.recommend(1, k=5)
        assert len(a) == 3
        assert len(b) == 5

    def test_many_matches_single(self, snapshot):
        batched = RecommendationService(snapshot, default_k=6, cache_size=0)
        single = RecommendationService(snapshot, default_k=6, cache_size=0)
        users = [3, 1, 4, 1, 5]
        many = batched.recommend_many(users)
        assert [r.user_id for r in many] == users
        for user, recommendation in zip(users, many):
            np.testing.assert_array_equal(recommendation.items, single.recommend(user).items)
        # 5 requested positions, 4 distinct users, exactly one retrieval batch
        assert batched.stats.batches == 1
        assert batched.stats.batched_queries == 4

    def test_invalid_k(self, service):
        with pytest.raises(ValueError):
            service.recommend(0, k=0)


class TestColdStart:
    def test_unknown_user_gets_popularity(self, service, snapshot):
        recommendation = service.recommend(snapshot.num_users + 42, k=6)
        assert recommendation.source == "popularity"
        expected = np.argsort(-snapshot.item_popularity.astype(float), kind="stable")[:6]
        np.testing.assert_array_equal(recommendation.items, expected)
        assert service.stats.fallbacks == 1

    def test_negative_user_gets_popularity(self, service):
        assert service.recommend(-3).source == "popularity"

    def test_fallback_masks_known_users_history(self, snapshot):
        # A known-but-cold user must not be recommended their own training
        # items even on the popularity path.
        service = RecommendationService(
            snapshot, default_k=10, cold_start_min_history=10_000
        )
        for user in range(snapshot.num_users):
            recommendation = service.recommend(user)
            assert recommendation.source == "popularity"
            assert not np.isin(recommendation.items, snapshot.train_items(user)).any()
        # Unknown users get the unfiltered ranking.
        unfiltered = service.recommend(snapshot.num_users + 1)
        expected = np.argsort(-snapshot.item_popularity.astype(float), kind="stable")[:10]
        np.testing.assert_array_equal(unfiltered.items, expected)

    def test_fallback_threshold_configurable(self, snapshot):
        service = RecommendationService(
            snapshot, default_k=5, cold_start_min_history=10_000
        )
        # Every user has fewer than 10k training items -> all fall back.
        assert service.recommend(0).source == "popularity"
        strict = RecommendationService(snapshot, default_k=5, cold_start_min_history=0)
        assert strict.recommend(0).source == "model"


class TestMicroBatching:
    def test_submit_flush_matches_direct(self, snapshot):
        service = RecommendationService(snapshot, default_k=7, cache_size=0)
        reference = RecommendationService(snapshot, default_k=7, cache_size=0)
        tickets = [service.submit(user) for user in (0, 2, 4)]
        assert service.pending_count == 3
        assert not tickets[0].ready
        served = service.flush()
        assert served == 3
        assert service.pending_count == 0
        for user, ticket in zip((0, 2, 4), tickets):
            np.testing.assert_array_equal(
                ticket.result().items, reference.recommend(user).items
            )

    def test_auto_flush_when_buffer_full(self, snapshot):
        service = RecommendationService(snapshot, batch_size=2)
        first = service.submit(0)
        assert not first.ready
        second = service.submit(1)
        assert first.ready
        assert second.ready

    def test_result_forces_flush(self, snapshot):
        service = RecommendationService(snapshot)
        ticket = service.submit(3)
        recommendation = ticket.result()  # no explicit flush needed
        assert recommendation.user_id == 3

    def test_mixed_k_batches(self, snapshot):
        service = RecommendationService(snapshot, cache_size=0)
        small = service.submit(0, k=3)
        large = service.submit(0, k=9)
        service.flush()
        assert len(small.result()) == 3
        assert len(large.result()) == 9

    def test_submit_rejects_bad_k_up_front(self, snapshot):
        # A poisoned entry in the buffer must never strand other tickets.
        service = RecommendationService(snapshot)
        good = service.submit(1, k=5)
        with pytest.raises(ValueError):
            service.submit(2, k=0)
        assert service.flush() == 1
        assert good.result().user_id == 1

    def test_flush_requeues_tickets_on_group_failure(self, snapshot, monkeypatch):
        service = RecommendationService(snapshot)
        ticket = service.submit(1, k=5)

        def boom(users, k=None):
            raise RuntimeError("index exploded")

        monkeypatch.setattr(service, "recommend_many", boom)
        with pytest.raises(RuntimeError, match="index exploded"):
            service.flush()
        # The unserved ticket is back in the buffer, not silently lost.
        assert service.pending_count == 1
        monkeypatch.undo()
        service.flush()
        assert ticket.result().user_id == 1

    def test_concurrent_submitters(self, snapshot):
        service = RecommendationService(snapshot, batch_size=4, default_k=5)
        results: dict[int, object] = {}

        def worker(user):
            results[user] = service.submit(user).result()

        threads = [threading.Thread(target=worker, args=(user,)) for user in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 12
        reference = RecommendationService(snapshot, default_k=5)
        for user, recommendation in results.items():
            np.testing.assert_array_equal(
                recommendation.items, reference.recommend(user).items
            )

    def test_result_during_another_threads_flush_returns_its_answer(self, snapshot):
        # Thread A's flush holds the service lock while it serves; thread B
        # asks for a ticket in that batch.  B blocks on the lock, then finds
        # the answer A's flush wrote (no second search is made).
        service = RecommendationService(snapshot, default_k=5)
        ticket = service.submit(2)
        real = service.recommend_many
        inside, release = threading.Event(), threading.Event()
        served = []

        def held_open(users, k=None):
            inside.set()
            release.wait(timeout=10)
            served.append(real(users, k=k))
            return served[-1]

        service.recommend_many = held_open
        flusher = threading.Thread(target=service.flush)
        flusher.start()
        assert inside.wait(timeout=10)
        answers = []
        reader = threading.Thread(target=lambda: answers.append(ticket.result()))
        reader.start()
        reader.join(timeout=0.05)
        assert reader.is_alive()  # waiting on the lock A holds
        release.set()
        flusher.join(timeout=10)
        reader.join(timeout=10)
        assert not flusher.is_alive() and not reader.is_alive()
        assert len(served) == 1
        assert answers == [served[0][0]]
        assert answers[0] is ticket.result()

    def test_result_under_thread_switch_pressure(self, snapshot):
        # More threads than cores, switching every microsecond: every ticket
        # still gets its own user's answer, exactly once per query.
        import sys

        service = RecommendationService(snapshot, batch_size=5, default_k=4, cache_size=8)
        users = {thread: [(thread * 7 + i) % snapshot.num_users for i in range(40)] for thread in range(8)}
        answers: dict[int, list] = {}

        def worker(thread):
            tickets = [service.submit(user) for user in users[thread]]
            answers[thread] = [ticket.result() for ticket in tickets]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(thread,)) for thread in users]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        reference = RecommendationService(snapshot, default_k=4, cache_size=0)
        for thread, served in answers.items():
            assert [answer.user_id for answer in served] == users[thread]
            for user, answer in zip(users[thread], served):
                np.testing.assert_array_equal(answer.items, reference.recommend(user).items)
        assert service.stats.queries == 8 * 40
        assert service.pending_count == 0


class ReferenceService(RecommendationService):
    """The per-user request path that ``recommend_many`` replaced.

    One cache probe, one cold check and one masked row copy per user, kept
    here as the reference the vectorised path must match exactly.
    """

    def _is_cold(self, user_id: int) -> bool:
        if user_id < 0 or user_id >= self.snapshot.num_users:
            return True
        if self.cold_start_min_history <= 0:
            return False
        start, stop = self.snapshot.train_indptr[user_id], self.snapshot.train_indptr[user_id + 1]
        return int(stop - start) < self.cold_start_min_history

    def recommend_many(self, user_ids, k=None, deadline_s=None):
        k = self.default_k if k is None else int(k)
        user_ids = [int(user) for user in np.atleast_1d(np.asarray(user_ids, dtype=np.int64))]
        with self._lock:
            results = {}
            warm = []
            queued = set()
            cache_hits = cache_misses = 0
            for user in user_ids:
                if user in results or user in queued:
                    continue
                cached = self._cache.get((user, k))
                if cached is not None:
                    cache_hits += 1
                    results[user] = cached
                else:
                    cache_misses += 1
                    if self._is_cold(user):
                        results[user] = self._popularity_fallback(user, k)
                    else:
                        warm.append(user)
                        queued.add(user)
            if cache_hits:
                self._m_cache_hits.inc(cache_hits)
            if cache_misses:
                self._m_cache_misses.inc(cache_misses)
            if warm:
                indices, scores = self.retriever.topk_for_users(np.asarray(warm, dtype=np.int64), k)
                self.stats.batches += 1
                self.stats.batched_queries += len(warm)
                self._m_batch_size.observe(len(warm))
                for row, user in enumerate(warm):
                    valid = indices[row] != PAD_INDEX
                    recommendation = Recommendation(
                        user_id=user,
                        items=indices[row][valid],
                        scores=scores[row][valid],
                        source="model",
                        snapshot_id=self.snapshot.snapshot_id,
                    )
                    results[user] = recommendation
                    self._cache.put((user, k), recommendation)
            self.stats.queries += len(user_ids)
            self._m_queries.inc(len(user_ids))
            return [results[user] for user in user_ids]


EQUIVALENCE_USERS, EQUIVALENCE_ITEMS = 24, 14
#: 12 is larger than most users' unseen items, so their rows come back padded.
EQUIVALENCE_KS = (3, 5, 12)


@pytest.fixture(scope="module")
def history_snapshot():
    """Users with 0 to all 14 items seen (duplicate pairs included)."""
    from repro.serve import build_snapshot

    rng = np.random.default_rng(7)
    pairs = []
    for user in range(EQUIVALENCE_USERS):
        seen = rng.choice(EQUIVALENCE_ITEMS, size=(0, 1, 2, 5, 9, 12, 14)[user % 7], replace=False)
        pairs += [(user, item) for item in seen] + [(user, item) for item in seen[:2]]
    return build_snapshot(
        rng.standard_normal((EQUIVALENCE_USERS, 4)),
        rng.standard_normal((EQUIVALENCE_ITEMS, 4)),
        train_pairs=np.array(pairs, dtype=np.int64).reshape(-1, 2),
    )


def live_provider():
    """A provider whose ranking changes on every call, so call order shows."""
    calls = iter(range(1_000_000))

    def provider():
        return (np.arange(EQUIVALENCE_ITEMS) * 5 + next(calls)) % EQUIVALENCE_ITEMS

    return provider


def drive(service, seed: int) -> list:
    """Seeded batches of direct and submit/flush queries with mixed ``k``.

    Returns ``(k, answer)`` per query.  Ids run from -3 to 3 past the last
    user, with repeats; submit/flush batches mix every ``k`` and overflow the
    buffer, so some flushes happen inside ``submit``.
    """
    rng = np.random.default_rng(seed)
    answers = []
    for step in range(40):
        users = rng.integers(-3, EQUIVALENCE_USERS + 3, size=int(rng.integers(1, 12))).tolist()
        if step % 3 == 2:
            ks = [int(k) for k in rng.choice(EQUIVALENCE_KS, size=len(users))]
            tickets = [service.submit(user, k=k) for user, k in zip(users, ks)]
            service.flush()
            answers += [(k, ticket.result()) for k, ticket in zip(ks, tickets)]
        else:
            k = int(rng.choice(EQUIVALENCE_KS))
            answers += [(k, answer) for answer in service.recommend_many(users, k=k)]
    return answers


class TestRequestPathEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("live", [False, True])
    @pytest.mark.parametrize("cache_size", [0, 3])
    @pytest.mark.parametrize("min_history", [0, 1, 10_000])
    def test_matches_per_user_loop(self, history_snapshot, min_history, cache_size, live, seed):
        from repro.obs.metrics import use_registry

        counters = ("serve.queries.total", "serve.fallbacks.total")
        outcomes = []
        for cls in (RecommendationService, ReferenceService):
            with use_registry() as registry:
                service = cls(
                    history_snapshot,
                    cache_size=cache_size,
                    batch_size=8,
                    cold_start_min_history=min_history,
                    popularity_provider=live_provider() if live else None,
                )
                answers = drive(service, seed)
                cache_series = {"snapshot": history_snapshot.snapshot_id}
                metrics = [registry.value(name) for name in counters] + [
                    registry.value(f"serve.cache.{kind}.total", labels=cache_series)
                    for kind in ("hits", "misses")
                ]
            outcomes.append((service, answers, metrics))
        (service, got, got_metrics), (reference, want, want_metrics) = outcomes

        assert [k for k, _ in got] == [k for k, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert (a.user_id, a.source, a.snapshot_id) == (b.user_id, b.source, b.snapshot_id)
            assert a.items.dtype == b.items.dtype and a.scores.dtype == b.scores.dtype
            np.testing.assert_array_equal(a.items, b.items)
            np.testing.assert_array_equal(a.scores, b.scores)
        assert service.stats.as_dict() == reference.stats.as_dict()
        assert (service.cache.hits, service.cache.misses) == (reference.cache.hits, reference.cache.misses)
        assert list(service.cache._data) == list(reference.cache._data)
        assert got_metrics == want_metrics
        # The batches really exercise padded rows and both answer sources.
        if min_history != 10_000:
            assert any(a.source == "model" and len(a) < k for k, a in got)
            assert any(a.source == "model" and len(a) == k for k, a in got)
        assert any(a.source == "popularity" for _, a in got)


class TestSnapshotSwap:
    def test_swap_invalidates_cache(self, lightgcn_backbone, snapshot):
        service = RecommendationService(snapshot, default_k=6)
        before = service.recommend(0)
        assert len(service.cache) == 1

        # Perturb the embeddings -> a genuinely different snapshot.
        shifted = create_snapshot(lightgcn_backbone)
        shifted.user_embeddings = shifted.user_embeddings[::-1].copy()
        shifted.metadata["snapshot_id"] = "f" * 16
        service.swap_snapshot(shifted)

        assert len(service.cache) == 0
        after = service.recommend(0)
        assert after.snapshot_id != before.snapshot_id
        assert service.stats.snapshot_swaps == 1

    def test_swap_rebuilds_index_via_factory(self, snapshot):
        built = []

        def factory(items):
            index = IVFIndex(items, n_probe=2)
            built.append(index)
            return index

        service = RecommendationService(snapshot, index_factory=factory)
        assert len(built) == 1
        service.swap_snapshot(snapshot)
        assert len(built) == 2
        assert service.index is built[-1]

    def test_index_and_factory_mutually_exclusive(self, snapshot):
        with pytest.raises(ValueError):
            RecommendationService(
                snapshot,
                index=IVFIndex(snapshot.item_embeddings, n_probe=1),
                index_factory=lambda items: IVFIndex(items, n_probe=1),
            )

    def test_pending_queries_flushed_before_swap(self, snapshot):
        service = RecommendationService(snapshot, default_k=4)
        ticket = service.submit(2)
        old_id = snapshot.snapshot_id
        shifted = create_snapshot_variant(snapshot)
        service.swap_snapshot(shifted)
        assert ticket.ready
        assert ticket.result().snapshot_id == old_id


class TestSwapRaces:
    def test_submit_racing_swap_never_mixes_versions(self, snapshot):
        """Concurrent submits while snapshots swap: every served result must
        belong to exactly one snapshot version, never a mix."""
        service = RecommendationService(snapshot, default_k=5, cache_size=0, batch_size=4)
        variants = [snapshot] + [
            create_snapshot_variant(snapshot, shift=float(i)) for i in (1, 2, 3)
        ]
        known_ids = {v.snapshot_id for v in variants}
        per_version_items = {
            v.snapshot_id: {
                user: RecommendationService(v, default_k=5, cache_size=0).recommend(user).items.tolist()
                for user in range(8)
            }
            for v in variants
        }
        results = []
        results_lock = threading.Lock()
        stop = threading.Event()

        def submitter():
            user = 0
            while not stop.is_set():
                ticket = service.submit(user % 8)
                recommendation = ticket.result()
                with results_lock:
                    results.append(recommendation)
                user += 1

        threads = [threading.Thread(target=submitter) for _ in range(3)]
        for thread in threads:
            thread.start()
        for _ in range(3):
            for variant in variants[1:] + [variants[0]]:
                service.swap_snapshot(variant)
        stop.set()
        for thread in threads:
            thread.join()
        service.flush()

        assert len(results) > 0
        for recommendation in results:
            # The advertised version is a real one...
            assert recommendation.snapshot_id in known_ids
            # ...and the items are exactly what that version would serve: the
            # ranking was not computed against a different snapshot mid-swap.
            expected = per_version_items[recommendation.snapshot_id][recommendation.user_id]
            assert recommendation.items.tolist() == expected

    def test_pending_tickets_served_from_pre_swap_snapshot(self, snapshot):
        service = RecommendationService(snapshot, default_k=4, batch_size=64)
        tickets = [service.submit(user) for user in range(6)]
        service.swap_snapshot(create_snapshot_variant(snapshot))
        # The swap flushed the buffer against the old snapshot first.
        assert all(ticket.ready for ticket in tickets)
        assert {t.result().snapshot_id for t in tickets} == {snapshot.snapshot_id}
        # New queries see the new snapshot.
        assert service.recommend(0).snapshot_id != snapshot.snapshot_id


class TestPopularityProvider:
    def test_defaults_to_snapshot_counts(self, service, snapshot):
        np.testing.assert_array_equal(service.popularity(), snapshot.item_popularity)

    def test_provider_overrides_fallback_ranking(self, snapshot):
        service = RecommendationService(snapshot, default_k=3)
        boosted = np.zeros(snapshot.num_items, dtype=np.int64)
        boosted[5] = 1000
        boosted[2] = 500
        service.set_popularity_provider(lambda: boosted)
        recommendation = service.recommend(snapshot.num_users + 1, k=2)
        assert recommendation.source == "popularity"
        np.testing.assert_array_equal(recommendation.items, [5, 2])
        np.testing.assert_array_equal(recommendation.scores, [1000.0, 500.0])

    def test_provider_reset_restores_snapshot(self, snapshot):
        service = RecommendationService(snapshot, default_k=3)
        service.set_popularity_provider(lambda: np.arange(snapshot.num_items))
        service.set_popularity_provider(None)
        np.testing.assert_array_equal(service.popularity(), snapshot.item_popularity)

    def test_provider_shape_validated(self, snapshot):
        service = RecommendationService(snapshot)
        service.set_popularity_provider(lambda: np.ones(3))
        with pytest.raises(ValueError, match="popularity provider"):
            service.recommend(snapshot.num_users + 1)

    def test_provider_masks_known_user_history(self, snapshot):
        service = RecommendationService(
            snapshot, default_k=10, cold_start_min_history=10_000
        )
        service.set_popularity_provider(
            lambda: np.arange(snapshot.num_items, 0, -1, dtype=np.int64)
        )
        for user in range(snapshot.num_users):
            recommendation = service.recommend(user)
            assert recommendation.source == "popularity"
            assert not np.isin(recommendation.items, snapshot.train_items(user)).any()


class TestRecordInteraction:
    def test_requires_attached_log(self, service):
        with pytest.raises(RuntimeError, match="no event log"):
            service.record_interaction(0, 1)

    def test_appends_and_counts(self, snapshot):
        from repro.stream import EventLog

        log = EventLog()
        service = RecommendationService(snapshot, event_log=log)
        event = service.record_interaction(snapshot.num_users + 7, 3, weight=2.0)
        assert event.seq == 0
        assert event.user_id == snapshot.num_users + 7
        assert len(log) == 1
        assert service.stats.interactions_recorded == 1
        assert service.stats.as_dict()["interactions_recorded"] == 1

    def test_attach_after_construction(self, service):
        from repro.stream import EventLog

        log = EventLog()
        service.attach_event_log(log)
        service.record_interaction(0, 1)
        assert len(log) == 1

    def test_rejects_unknown_item(self, snapshot):
        from repro.stream import EventLog

        service = RecommendationService(snapshot, event_log=EventLog())
        with pytest.raises(ValueError, match="frozen catalogue"):
            service.record_interaction(0, snapshot.num_items)

    def test_rejects_negative_user(self, snapshot):
        from repro.stream import EventLog

        service = RecommendationService(snapshot, event_log=EventLog())
        with pytest.raises(ValueError):
            service.record_interaction(-1, 0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, snapshot, weight):
        from repro.stream import EventLog

        log = EventLog()
        service = RecommendationService(snapshot, event_log=log)
        with pytest.raises(ValueError, match="weight"):
            service.record_interaction(0, 1, weight=weight)
        assert len(log) == 0
        assert service.stats.interactions_recorded == 0


def create_snapshot_variant(snapshot, shift: float = 1.0):
    """A copy of ``snapshot`` with a different id (simulates a retrain)."""
    from repro.serve import build_snapshot

    variant = build_snapshot(
        snapshot.user_embeddings + shift,
        snapshot.item_embeddings,
        model_name="variant",
    )
    return variant


class TestGracefulDegradation:
    """Retrieval failures open the breaker; queries degrade, never error."""

    def _break_retriever(self, service):
        def broken(*args, **kwargs):
            raise RuntimeError("index corrupted")

        service.retriever.topk_for_users = broken

    def test_retrieval_failure_served_from_popularity(self, snapshot):
        service = RecommendationService(snapshot)
        self._break_retriever(service)
        recommendation = service.recommend(0, k=4)
        assert recommendation.source == "popularity"
        assert len(recommendation.items) == 4
        assert service.stats.retrieval_errors == 1
        assert service.stats.degraded_queries == 1

    def test_breaker_opens_and_stops_touching_the_index(self, snapshot):
        service = RecommendationService(snapshot)
        self._break_retriever(service)
        for user in range(10):
            assert service.recommend(user, k=3).source == "popularity"
        assert service.breaker.open_count >= 1
        # Once open, queries degrade without even calling the retriever.
        assert service.stats.retrieval_errors < 10
        assert service.stats.degraded_queries == 10

    def test_degraded_results_are_not_cached(self, snapshot):
        service = RecommendationService(snapshot)
        original = service.retriever.topk_for_users
        self._break_retriever(service)
        assert service.recommend(1, k=4).source == "popularity"
        # Recovery: restore the retriever and close the breaker — the same
        # query immediately serves model results again (no stale cache).
        service.retriever.topk_for_users = original
        service.breaker.reset()
        assert service.recommend(1, k=4).source == "model"

    def test_swap_resets_breaker_state(self, snapshot):
        service = RecommendationService(snapshot)
        service.breaker.trip()
        assert not service.breaker.allow()
        service.swap_snapshot(snapshot)
        assert service.breaker.allow()

    def test_stats_expose_degradation_counters(self, snapshot):
        service = RecommendationService(snapshot)
        stats = service.stats.as_dict()
        assert stats["degraded_queries"] == 0
        assert stats["retrieval_errors"] == 0


class TestAdmissionControl:
    """Deadline budgets shed the index search, never the user's answer."""

    def test_blown_budget_sheds_to_popularity(self, snapshot):
        # A budget no real request can meet: every warm query is shed.
        service = RecommendationService(snapshot, deadline_budget_s=1e-9)
        recommendation = service.recommend(0, k=4)
        assert recommendation.source == "popularity"
        assert len(recommendation.items) == 4
        assert service.stats.deadline_shed == 1
        # Shedding is admission control, not a failure mode.
        assert service.stats.degraded_queries == 0
        assert service.stats.retrieval_errors == 0

    def test_per_call_deadline_overrides_service_default(self, snapshot):
        service = RecommendationService(snapshot)
        shed = service.recommend_many([0, 1], k=4, deadline_s=1e-9)
        assert all(rec.source == "popularity" for rec in shed)
        assert service.stats.deadline_shed == 2
        # A generous per-call deadline serves the model as usual.
        served = service.recommend_many([0, 1], k=4, deadline_s=30.0)
        assert all(rec.source == "model" for rec in served)

    def test_shed_answers_are_not_cached(self, snapshot):
        service = RecommendationService(snapshot)
        assert service.recommend_many([0], k=4, deadline_s=1e-9)[0].source == "popularity"
        # The next unconstrained query gets real results, not a stale shed.
        assert service.recommend(0, k=4).source == "model"

    def test_generous_budget_never_sheds(self, snapshot):
        service = RecommendationService(snapshot, deadline_budget_s=30.0)
        assert service.recommend(0, k=4).source == "model"
        assert service.stats.deadline_shed == 0

    def test_shed_appears_in_stats_dict(self, snapshot):
        service = RecommendationService(snapshot, deadline_budget_s=1e-9)
        service.recommend(0, k=4)
        assert service.stats.as_dict()["deadline_shed"] == 1

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_rejects_non_positive_budgets(self, snapshot, budget):
        with pytest.raises(ValueError):
            RecommendationService(snapshot, deadline_budget_s=budget)
        service = RecommendationService(snapshot)
        with pytest.raises(ValueError):
            service.recommend_many([0], deadline_s=budget)


class TestPopularityRecommendation:
    def test_serves_popularity_directly(self, snapshot):
        service = RecommendationService(snapshot, default_k=8)
        recommendation = service.popularity_recommendation(3)
        assert recommendation.source == "popularity"
        assert recommendation.user_id == 3
        assert len(recommendation.items) == 8
        assert service.stats.queries == 1

    def test_explicit_k_and_validation(self, snapshot):
        service = RecommendationService(snapshot)
        assert len(service.popularity_recommendation(0, k=3).items) == 3
        with pytest.raises(ValueError):
            service.popularity_recommendation(0, k=0)

    def test_works_while_breaker_is_open(self, snapshot):
        # The canary splitter leans on this as its never-fail degraded path.
        service = RecommendationService(snapshot)
        service.breaker.trip()
        assert service.popularity_recommendation(1, k=4).source == "popularity"


class TestCacheMetricsAcrossSwaps:
    """Hit/miss accounting survives snapshot swaps without mixing versions.

    The cache counters are *labeled by snapshot id*: each snapshot version
    owns its own hit/miss series, so a swap starts fresh series instead of
    resetting (and losing) the old version's numbers.
    """

    @staticmethod
    def _variant_with_history(snapshot):
        """A retrained-looking snapshot that keeps every user's train history
        (so warm users stay warm — and cacheable — after the swap)."""
        from repro.serve import build_snapshot

        pairs = np.column_stack(
            [
                np.repeat(
                    np.arange(snapshot.num_users), np.diff(snapshot.train_indptr)
                ),
                snapshot.train_indices,
            ]
        )
        return build_snapshot(
            snapshot.user_embeddings + 0.5,
            snapshot.item_embeddings,
            train_pairs=pairs,
            model_name="variant",
        )

    def test_per_snapshot_series_and_swap_behaviour(self, snapshot):
        from repro.obs.metrics import use_registry

        with use_registry() as registry:
            service = RecommendationService(snapshot, default_k=5, cache_size=64)
            old = {"snapshot": snapshot.snapshot_id}
            service.recommend(0, k=5)  # miss, fills cache
            service.recommend(0, k=5)  # hit
            assert registry.value("serve.cache.misses.total", labels=old) == 1
            assert registry.value("serve.cache.hits.total", labels=old) == 1

            variant = self._variant_with_history(snapshot)
            service.swap_snapshot(variant)
            new = {"snapshot": variant.snapshot_id}
            service.recommend(0, k=5)  # swap cleared the cache: miss on NEW series
            service.recommend(0, k=5)  # hit on the new series
            assert registry.value("serve.cache.misses.total", labels=new) == 1
            assert registry.value("serve.cache.hits.total", labels=new) == 1
            # The old version's history is preserved, not reset or re-used.
            assert registry.value("serve.cache.misses.total", labels=old) == 1
            assert registry.value("serve.cache.hits.total", labels=old) == 1
            assert registry.value("serve.snapshot.swaps.total") == 1

    def test_swap_back_resumes_the_original_series(self, snapshot):
        from repro.obs.metrics import use_registry

        with use_registry() as registry:
            service = RecommendationService(snapshot, default_k=5, cache_size=64)
            variant = self._variant_with_history(snapshot)
            labels = {"snapshot": snapshot.snapshot_id}
            service.recommend(0, k=5)
            service.swap_snapshot(variant)
            service.recommend(0, k=5)
            service.swap_snapshot(snapshot)  # roll back to the original
            service.recommend(0, k=5)
            # Counters for the original id accumulated across both tenures:
            # get-or-create returned the same series after the rollback swap.
            assert registry.value("serve.cache.misses.total", labels=labels) == 2
            assert registry.value("serve.snapshot.swaps.total") == 2
