"""Online recommendation service: batching, caching and cold-start fallback.

:class:`RecommendationService` is the top of the serving stack.  It owns a
snapshot and an index (exact or IVF), and adds the concerns a real serving
process needs on top of raw retrieval:

* **micro-batching** — concurrent single-user queries are buffered and
  answered by one batched matmul (``submit()`` / ``flush()``, or implicitly
  through ``recommend_many``), amortising per-query overhead.  A
  ``submit()`` handle is synchronous: ``result()`` runs the flush itself
  (under the service lock) if its batch has not been served yet, so there is
  no cross-thread wait primitive and no per-query event object;
* **LRU result cache** — repeated queries for the same ``(user, k)`` are
  served from memory; the cache is invalidated atomically when a new snapshot
  is swapped in;
* **cold-start fallback** — user ids unknown to the snapshot (or, optionally,
  users with no training history) receive the global popularity ranking
  instead of garbage embeddings;
* **graceful degradation** — retrieval failures (a corrupt index, a poisoned
  embedding table, an injected chaos fault) are fed to a
  :class:`~repro.reliability.CircuitBreaker`; affected queries are answered
  from the popularity ranking instead of erroring, and once the breaker opens
  the index is not even attempted until its reset timeout elapses.  The
  service keeps answering through any retrieval-side failure.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import exponential_buckets, get_registry
from ..obs.tracing import span
from ..reliability.breaker import CircuitBreaker
from ..reliability.faults import fault_point
from .retrieval import PAD_INDEX, ExactIndex, Retriever
from .snapshot import EmbeddingSnapshot

__all__ = ["LRUCache", "Recommendation", "PendingRecommendation", "RecommendationService"]


class LRUCache:
    """A small thread-safe least-recently-used mapping with hit statistics."""

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True)
class Recommendation:
    """One served top-K list."""

    user_id: int
    items: np.ndarray
    scores: np.ndarray
    source: str  # "model" | "popularity"
    snapshot_id: str

    def __len__(self) -> int:
        return len(self.items)


class PendingRecommendation:
    """Handle for a query waiting in the micro-batch buffer.

    The handle is synchronous: its only state is the answer slot, which the
    flush that serves the query fills.  ``result()`` runs a flush itself if
    the slot is still empty, so callers can never deadlock on their own
    query; a caller racing another thread's flush simply waits on the service
    lock and then finds its answer.  There is no cross-thread wait primitive.
    """

    __slots__ = ("_service", "_result")

    def __init__(self, service: "RecommendationService") -> None:
        self._service = service
        self._result: Recommendation | None = None

    @property
    def ready(self) -> bool:
        return self._result is not None

    def result(self) -> Recommendation:
        if self._result is None:
            self._service.flush()
            if self._result is None:  # pragma: no cover - defensive
                raise RuntimeError("micro-batch flush did not fulfil this query")
        return self._result


@dataclass
class ServiceStats:
    """Operational counters exposed by :class:`RecommendationService`."""

    queries: int = 0
    batches: int = 0
    batched_queries: int = 0
    fallbacks: int = 0
    snapshot_swaps: int = 0
    interactions_recorded: int = 0
    #: Queries answered from the popularity ranking because retrieval failed
    #: or the circuit breaker was open (a subset of ``fallbacks``).
    degraded_queries: int = 0
    #: Retrieval calls that raised (each one also fed the breaker a failure).
    retrieval_errors: int = 0
    #: Warm queries whose deadline budget expired before retrieval ran; they
    #: were answered from popularity instead (admission-control load shed).
    deadline_shed: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "fallbacks": self.fallbacks,
            "snapshot_swaps": self.snapshot_swaps,
            "interactions_recorded": self.interactions_recorded,
            "degraded_queries": self.degraded_queries,
            "retrieval_errors": self.retrieval_errors,
            "deadline_shed": self.deadline_shed,
        }


class RecommendationService:
    """Serve top-K recommendations from an embedding snapshot.

    Parameters
    ----------
    snapshot:
        The :class:`EmbeddingSnapshot` to serve from.
    index:
        Optional pre-built index over ``snapshot.item_embeddings``.  Mutually
        exclusive with ``index_factory``.
    index_factory:
        ``callable(item_embeddings) -> index`` used to (re)build the index,
        including after :meth:`swap_snapshot`.  Defaults to exact retrieval.
    default_k:
        List length when a query does not specify one.
    cache_size:
        Maximum number of cached ``(user, k)`` results (0 disables caching).
    batch_size:
        Micro-batch buffer capacity; the buffer auto-flushes when full.
    mask_train:
        Whether to exclude each user's training items from results.
    cold_start_min_history:
        Known users with fewer training interactions than this also fall back
        to the popularity ranking (0 restricts fallback to unknown ids).
    popularity_provider:
        Optional zero-argument callable returning a ``(num_items,)`` count
        array for the cold-start ranking.  Defaults to the frozen snapshot
        counts; pass a provider backed by a live event log so fallback
        rankings track current traffic (see :func:`repro.stream.live_popularity`).
    event_log:
        Optional append-only log (any object with an
        ``append(user_id, item_id, timestamp=..., weight=...)`` method, e.g.
        :class:`repro.stream.EventLog`) that :meth:`record_interaction` writes
        to; can also be attached later via :meth:`attach_event_log`.
    breaker:
        Circuit breaker guarding the retrieval path (``None`` builds a
        default one).  When retrieval raises, the failing batch — and, while
        the breaker is open, every subsequent warm query — is served from the
        popularity ranking instead of propagating the error.
    deadline_budget_s:
        Default per-request deadline budget in seconds (``None`` disables
        admission control).  If a request has already spent its budget by the
        time its warm users would hit the index — lock wait included — the
        index search is *shed* and those users are answered from the
        popularity ranking instead.  Under overload a late cheap answer beats
        a later expensive one; a user query is never failed outright.
        Overridable per call via ``recommend_many(..., deadline_s=...)``.
    """

    def __init__(
        self,
        snapshot: EmbeddingSnapshot,
        index=None,
        index_factory=None,
        default_k: int = 10,
        cache_size: int = 1024,
        batch_size: int = 64,
        mask_train: bool = True,
        cold_start_min_history: int = 1,
        popularity_provider=None,
        event_log=None,
        breaker: CircuitBreaker | None = None,
        deadline_budget_s: float | None = None,
    ) -> None:
        if index is not None and index_factory is not None:
            raise ValueError("pass either a pre-built index or an index_factory, not both")
        if default_k <= 0:
            raise ValueError("default_k must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if deadline_budget_s is not None and deadline_budget_s <= 0:
            raise ValueError("deadline_budget_s must be positive (or None to disable)")
        self.deadline_budget_s = deadline_budget_s
        self.default_k = default_k
        self.batch_size = batch_size
        self.mask_train = mask_train
        self.cold_start_min_history = cold_start_min_history
        self._index_factory = index_factory or (lambda items: ExactIndex(items))
        self._cache = LRUCache(cache_size)
        self._lock = threading.RLock()
        self._pending: list[tuple[int, int, PendingRecommendation]] = []
        self.stats = ServiceStats()
        self._popularity_provider = popularity_provider
        self._event_log = event_log
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        # Metric handles are bound once here (no registry lookups on the hot
        # path); with metrics disabled these are shared no-op instruments.
        registry = get_registry()
        self._m_latency = registry.histogram(
            "serve.request.latency_seconds", "recommend_many wall time per call"
        )
        self._m_queries = registry.counter("serve.queries.total", "individual user queries served")
        self._m_batch_size = registry.histogram(
            "serve.batch.size",
            "warm users per batched index search",
            buckets=exponential_buckets(1.0, 2.0, 12),
        )
        self._m_fallbacks = registry.counter(
            "serve.fallbacks.total", "queries answered from the popularity ranking"
        )
        self._m_degraded = registry.counter(
            "serve.degraded.total", "warm queries degraded by retrieval failure or open breaker"
        )
        self._m_retrieval_errors = registry.counter(
            "serve.retrieval.errors.total", "retrieval calls that raised"
        )
        self._m_swaps = registry.counter("serve.snapshot.swaps.total", "hot snapshot swaps")
        self._m_shed = registry.counter(
            "serve.shed.total",
            "warm queries shed by admission control",
            labels={"reason": "deadline"},
        )
        self._install(snapshot, index)

    # ------------------------------------------------------------------ #
    # Snapshot lifecycle
    # ------------------------------------------------------------------ #
    def _install(self, snapshot: EmbeddingSnapshot, index=None) -> None:
        self.snapshot = snapshot
        self.index = index if index is not None else self._index_factory(snapshot.item_embeddings)
        self.retriever = Retriever(snapshot, self.index, mask_train=self.mask_train)
        order = np.argsort(-snapshot.item_popularity.astype(np.float64), kind="stable")
        self._popularity_order = order.astype(np.int64)
        # Cache hit/miss series are *labeled by snapshot version* (rather than
        # reset on swap): per-snapshot series keep the history of the previous
        # artifact while the cache itself starts cold for the new one.
        registry = get_registry()
        labels = {"snapshot": snapshot.snapshot_id}
        self._m_cache_hits = registry.counter(
            "serve.cache.hits.total", "LRU result-cache hits", labels=labels
        )
        self._m_cache_misses = registry.counter(
            "serve.cache.misses.total", "LRU result-cache misses", labels=labels
        )

    def swap_snapshot(self, snapshot: EmbeddingSnapshot, index=None) -> None:
        """Atomically replace the serving snapshot.

        Pending micro-batched queries are flushed against the *old* snapshot
        first (they were accepted under it), then the index is rebuilt and the
        result cache invalidated.
        """
        with self._lock:
            self.flush()
            self._install(snapshot, index)
            self._cache.clear()
            # Give the incoming artifacts a clean slate: failures of the old
            # snapshot/index must not keep refusing traffic to the new one.
            self.breaker.reset()
            self.stats.snapshot_swaps += 1
            self._m_swaps.inc()

    @property
    def cache(self) -> LRUCache:
        return self._cache

    # ------------------------------------------------------------------ #
    # Feedback ingestion & live popularity
    # ------------------------------------------------------------------ #
    def attach_event_log(self, event_log) -> None:
        """Attach (or replace) the append-only log behind :meth:`record_interaction`."""
        with self._lock:
            self._event_log = event_log

    @property
    def event_log(self):
        return self._event_log

    def record_interaction(self, user_id: int, item_id: int, timestamp: float = 0.0, weight: float = 1.0):
        """Append one observed interaction to the attached event log.

        This is the serving-side feedback entry point: a downstream
        :class:`repro.stream.StreamingUpdater` consumes the log, folds the
        interactions into the user table, and hot-swaps the result back in —
        after which the user stops hitting the popularity fallback.  The item
        id is validated against the current snapshot (the item table is
        frozen, so an unknown item can never be folded in); user ids beyond
        the table are allowed — that is exactly how brand-new users enter.  A
        NaN or infinite ``weight`` raises ``ValueError``.
        """
        if self._event_log is None:
            raise RuntimeError(
                "no event log attached; pass event_log= or call attach_event_log() first"
            )
        if not 0 <= int(item_id) < self.snapshot.num_items:
            raise ValueError(
                f"item id {item_id} outside the frozen catalogue [0, {self.snapshot.num_items})"
            )
        if int(user_id) < 0:
            raise ValueError("user_id must be non-negative")
        if not math.isfinite(weight):
            # A NaN/inf weight would fold into a non-finite user row.
            raise ValueError(f"weight {weight!r} must be finite")
        event = self._event_log.append(int(user_id), int(item_id), timestamp=timestamp, weight=weight)
        with self._lock:
            self.stats.interactions_recorded += 1
        return event

    def set_popularity_provider(self, provider) -> None:
        """Swap the popularity source used by the cold-start fallback.

        ``provider`` is a zero-argument callable returning a ``(num_items,)``
        count/score array, re-evaluated on every fallback so live counts (e.g.
        snapshot counts + event-log deltas) take effect immediately; ``None``
        restores the frozen snapshot counts.
        """
        with self._lock:
            self._popularity_provider = provider

    def popularity(self) -> np.ndarray:
        """The popularity array currently backing the cold-start fallback."""
        if self._popularity_provider is None:
            return self.snapshot.item_popularity
        return self._checked_popularity(self._popularity_provider())

    def _checked_popularity(self, provided) -> np.ndarray:
        """A provider's answer as an array; the wrong shape is a caller bug."""
        popularity = np.asarray(provided)
        if popularity.shape != (self.snapshot.num_items,):
            raise ValueError(
                "popularity provider returned shape "
                f"{popularity.shape}, expected ({self.snapshot.num_items},)"
            )
        return popularity

    # ------------------------------------------------------------------ #
    # Query paths
    # ------------------------------------------------------------------ #
    def _cold_mask(self, users: list[int]) -> np.ndarray:
        """Which ``users`` fall back to popularity, in one pass over ``train_indptr``."""
        ids = np.asarray(users, dtype=np.int64)
        cold = (ids < 0) | (ids >= self.snapshot.num_users)
        if self.cold_start_min_history > 0:
            known = ids[~cold]
            indptr = self.snapshot.train_indptr
            cold[~cold] = indptr[known + 1] - indptr[known] < self.cold_start_min_history
        return cold

    def _popularity_fallback(self, user_id: int, k: int) -> Recommendation:
        if self._popularity_provider is None:
            popularity = self.snapshot.item_popularity
            order = self._popularity_order
        else:
            # Live provider: re-rank on every fallback so fresh counts take
            # effect immediately (fallbacks are rare; the sort is cheap).
            # The fallback is the last line of defence, so a provider that
            # *fails* degrades to the frozen snapshot counts instead of
            # erroring — but a provider returning the wrong shape is a caller
            # bug and keeps raising, exactly like :meth:`popularity`.
            try:
                provided = self._popularity_provider()
            except Exception:
                popularity = self.snapshot.item_popularity
            else:
                popularity = self._checked_popularity(provided)
            order = np.argsort(-popularity.astype(np.float64), kind="stable").astype(np.int64)
        if self.mask_train and 0 <= user_id < self.snapshot.num_users:
            # Cold-but-known users keep the no-seen-items contract.
            seen = self.snapshot.train_items(user_id)
            if seen.size:
                order = order[~np.isin(order, seen)]
        items = order[:k]
        scores = popularity[items].astype(np.float64)
        self.stats.fallbacks += 1
        self._m_fallbacks.inc()
        return Recommendation(
            user_id=int(user_id),
            items=items.copy(),
            scores=scores,
            source="popularity",
            snapshot_id=self.snapshot.snapshot_id,
        )

    def popularity_recommendation(self, user_id: int, k: int | None = None) -> Recommendation:
        """Serve the popularity ranking directly, bypassing retrieval.

        Public degraded-path entry point for callers that must answer
        *something* without touching the index — e.g. the canary splitter
        answering a cohort query whose candidate arm just failed.  Counted as
        a query and a fallback, never cached.
        """
        k = self.default_k if k is None else int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        with self._lock:
            self.stats.queries += 1
            self._m_queries.inc()
            return self._popularity_fallback(int(user_id), k)

    def recommend(self, user_id: int, k: int | None = None) -> Recommendation:
        """Serve one user immediately (cache → fallback → single-row batch)."""
        return self.recommend_many([user_id], k=k)[0]

    def recommend_many(
        self, user_ids, k: int | None = None, deadline_s: float | None = None
    ) -> list[Recommendation]:
        """Serve several users with at most one index search (micro-batch).

        Cached and cold-start users are answered without touching the index;
        the remaining users share a single batched ``search`` call.
        ``deadline_s`` overrides the service-wide ``deadline_budget_s`` for
        this call (admission control: budget already spent ⇒ the index search
        is shed and warm users get popularity answers).
        """
        k = self.default_k if k is None else int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        budget = self.deadline_budget_s if deadline_s is None else float(deadline_s)
        if budget is not None and budget <= 0:
            raise ValueError("deadline_s must be positive (or None to disable)")
        user_ids = [int(user) for user in np.atleast_1d(np.asarray(user_ids, dtype=np.int64))]
        started = time.perf_counter()
        with self._lock, span("serve.recommend_many", users=len(user_ids), k=k):
            results: dict[int, Recommendation] = {}
            warm: list[int] = []
            # Each distinct user is probed once, in first-appearance order
            # (the LRU touch order).  Cache hits/misses are counted per
            # batch: one locked inc() per user measurably dents throughput.
            distinct = dict.fromkeys(user_ids)
            misses: list[int] = []
            cache_get = self._cache.get
            for user in distinct:
                cached = cache_get((user, k))
                if cached is None:
                    misses.append(user)
                else:
                    results[user] = cached
            cache_hits = len(distinct) - len(misses)
            if cache_hits:
                self._m_cache_hits.inc(cache_hits)
            if misses:
                self._m_cache_misses.inc(len(misses))
                for user, cold in zip(misses, self._cold_mask(misses).tolist()):
                    if cold:
                        results[user] = self._popularity_fallback(user, k)
                    else:
                        warm.append(user)
            if warm:
                batch = np.asarray(warm, dtype=np.int64)
                rows = None
                # Admission control: check the budget at the moment the index
                # search would start, so lock wait counts against it.  A blown
                # deadline sheds the expensive search, not the user.
                shed = budget is not None and (time.perf_counter() - started) >= budget
                if shed:
                    self.stats.deadline_shed += len(warm)
                    self._m_shed.inc(len(warm))
                elif self.breaker.allow():
                    try:
                        with span("serve.retrieval", users=len(warm)):
                            fault_point("serve.retrieval")
                            rows = self.retriever.topk_for_users(batch, k)
                    except Exception:
                        # Index or embedding failure: feed the breaker and fall
                        # through to the degraded path — the service answers
                        # every query even while retrieval is on fire.
                        self.breaker.record_failure()
                        self.stats.retrieval_errors += 1
                        self._m_retrieval_errors.inc()
                    else:
                        self.breaker.record_success()
                if rows is not None:
                    indices, scores = rows
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
                else:
                    # Breaker open, retrieval failed or deadline shed:
                    # popularity fallback, uncached so recovery serves real
                    # results immediately.
                    if not shed:
                        self.stats.degraded_queries += len(warm)
                        self._m_degraded.inc(len(warm))
                    for user in warm:
                        results[user] = self._popularity_fallback(user, k)
            self.stats.queries += len(user_ids)
            self._m_queries.inc(len(user_ids))
            self._m_latency.observe(time.perf_counter() - started)
            return [results[user] for user in user_ids]

    # ------------------------------------------------------------------ #
    # Micro-batch buffer (explicit submit/flush for concurrent callers)
    # ------------------------------------------------------------------ #
    def submit(self, user_id: int, k: int | None = None) -> PendingRecommendation:
        """Queue a query; it executes at the next flush (or when the buffer
        fills), sharing one matmul with every other pending query."""
        k = self.default_k if k is None else int(k)
        if k <= 0:
            # Reject here: a bad k inside the buffer would poison the whole
            # flush and strand every other pending ticket.
            raise ValueError("k must be positive")
        pending = PendingRecommendation(self)
        with self._lock:
            self._pending.append((int(user_id), k, pending))
            should_flush = len(self._pending) >= self.batch_size
        if should_flush:
            self.flush()
        return pending

    def flush(self) -> int:
        """Execute all buffered queries; returns how many were served."""
        with self._lock:
            pending, self._pending = self._pending, []
            if not pending:
                return 0
            # Group by k so each group is a single batched retrieval.
            by_k: dict[int, list[tuple[int, PendingRecommendation]]] = {}
            for user, k, ticket in pending:
                by_k.setdefault(k, []).append((user, ticket))
            try:
                for k, entries in by_k.items():
                    served = self.recommend_many([user for user, _ in entries], k=k)
                    # recommend_many returns one entry per *requested* position.
                    for (_, ticket), recommendation in zip(entries, served):
                        ticket._result = recommendation
            except BaseException:
                # If one group blew up, re-queue the tickets that were never
                # fulfilled instead of silently stranding them.
                unserved = [entry for entry in pending if entry[2]._result is None]
                self._pending = unserved + self._pending
                raise
            return len(pending)

    @property
    def pending_count(self) -> int:
        return len(self._pending)
