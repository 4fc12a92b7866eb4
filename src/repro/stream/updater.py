"""Micro-batched streaming updater: event log -> delta snapshot -> hot swap.

:class:`StreamingUpdater` closes the train→serve→ingest→update loop.  One
``apply()`` cycle:

1. drains the event log from the last applied sequence number, in
   micro-batches that also feed the :class:`~repro.stream.drift.DriftMonitor`;
2. folds every touched user's *full* history (frozen train CSR + buffered
   events) into the frozen item space with the configured
   :mod:`~repro.stream.foldin` solver — brand-new users grow the user table,
   existing users blend with their trained embedding;
3. patches the serving bookkeeping: the train-history CSR gains the new
   interactions (so they are masked out of future recommendations) and the
   popularity counts absorb the new traffic;
4. builds a **delta snapshot** — new content-addressed version id, provenance
   pointing at the base snapshot and the applied event range — and hot-swaps
   it into the :class:`~repro.serve.service.RecommendationService` through the
   existing ``swap_snapshot`` path, which atomically flushes in-flight
   micro-batches against the old version and invalidates the result cache.

Because fold-in never touches the item table, the delta snapshot *shares* the
base's item array, and the updater re-uses the service's existing item index
(exact or IVF) across the swap instead of rebuilding it: items are frozen, so
every cell assignment stays valid, and only the user side changed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data.interactions import group_by_key
from ..obs.metrics import get_registry
from ..obs.tracing import span
from ..serve.snapshot import EmbeddingSnapshot, build_delta_snapshot
from .drift import DriftConfig, DriftMonitor, RefreshSignal
from .events import EventLog
from .foldin import FoldInConfig, FoldInResult, fold_in_user, item_gram

__all__ = ["UpdateReport", "StreamingUpdater", "merge_into_csr", "live_popularity"]


def merge_into_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    new_pairs: np.ndarray,
    num_users: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge ``(n, 2)`` user-item pairs into a per-user sorted, deduplicated CSR.

    ``num_users`` may exceed ``len(indptr) - 1``: the CSR grows with empty
    rows for users that gained no interactions.  Cost scales with the touched
    users' rows, not the full history: untouched user slices are bulk-copied
    from the existing ``indices`` array, so a micro-batch touching a handful
    of users never re-sorts the whole training set.
    """
    old_users = len(indptr) - 1
    new_pairs = np.asarray(new_pairs, dtype=np.int64).reshape(-1, 2)
    counts = np.zeros(num_users, dtype=np.int64)
    counts[:old_users] = np.diff(indptr)
    merged_rows: dict[int, np.ndarray] = {}
    for user, positions in group_by_key(new_pairs[:, 0]):
        old_row = (
            indices[indptr[user] : indptr[user + 1]]
            if user < old_users
            else np.empty(0, dtype=np.int64)
        )
        row = np.unique(np.concatenate([old_row, new_pairs[positions, 1]]))
        merged_rows[user] = row
        counts[user] = len(row)
    touched = sorted(merged_rows)
    merged_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    # Stitch: untouched spans verbatim, touched rows replaced in id order.
    segments: list[np.ndarray] = []
    cursor = 0
    for user in touched:
        user = int(user)
        copy_until = min(user, old_users)
        if copy_until > cursor:
            segments.append(indices[indptr[cursor] : indptr[copy_until]])
        segments.append(merged_rows[user])
        cursor = max(cursor, min(user + 1, old_users))
    if cursor < old_users:
        segments.append(indices[indptr[cursor] : indptr[old_users]])
    merged_indices = (
        np.concatenate(segments) if segments else np.empty(0, dtype=indices.dtype)
    )
    return merged_indptr, merged_indices.astype(np.int64)


def live_popularity(snapshot: EmbeddingSnapshot, log: EventLog):
    """A popularity provider merging frozen snapshot counts with live events.

    Returns a zero-argument callable suitable for
    :meth:`repro.serve.RecommendationService.set_popularity_provider`; each
    call re-reads the log, so fallback rankings always reflect traffic
    recorded *after* the snapshot was trained.

    Delta snapshots already absorbed the events up to the end of their
    ``delta_event_range`` into ``item_popularity``, so only events past that
    point are added on top — building the provider from the current (possibly
    delta) serving snapshot never double-counts.  (Events a delta drained but
    deferred below ``min_interactions`` are skipped rather than counted
    twice: a bounded undercount instead of an unbounded overcount.)
    """
    num_items = snapshot.num_items
    absorbed = snapshot.delta_event_range
    # Running totals: each call bincounts only the log tail recorded since the
    # previous call, so fallback cost stays O(new events), not O(log size).
    counts = snapshot.item_popularity.astype(np.int64).copy()
    consumed_seq = absorbed[1] if absorbed is not None else 0

    def provider() -> np.ndarray:
        nonlocal consumed_seq
        tail_stop = log.next_seq
        if tail_stop > consumed_seq:
            counts[:] += log.item_counts(num_items, start_seq=consumed_seq, stop_seq=tail_stop)
            consumed_seq = tail_stop
        return counts.copy()  # callers must not mutate the running totals

    return provider


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`StreamingUpdater.apply` cycle did.

    ``event_range`` is the half-open log window *drained* by this cycle (the
    same value recorded as ``delta_event_range`` in the snapshot's
    provenance).  Drained is not necessarily folded: events of users still
    below ``min_interactions`` are carried in the updater's deferred buffer
    and folded by a later cycle.  Successive ranges therefore tile the log
    exactly — every event belongs to precisely one cycle — but replaying a
    delta chain must apply the same deferral rule to attribute each event to
    the generation that folded it; ``users_skipped`` reports the deferred
    users per cycle.
    """

    events_applied: int
    event_range: tuple[int, int]
    users_folded_in: int
    new_users: int
    users_skipped: int
    mean_residual: float
    base_snapshot_id: str
    snapshot_id: str
    refresh_signal: RefreshSignal | None = None
    fold_ins: tuple[FoldInResult, ...] = field(default=(), repr=False)
    #: Events dropped as unusable (item outside the frozen catalogue, NaN/inf
    #: weight, user id beyond the configured growth cap, or a fold-in that
    #: came out non-finite) rather than wedging the cycle.
    events_rejected: int = 0
    users_rejected: int = 0

    @property
    def swapped(self) -> bool:
        return self.snapshot_id != self.base_snapshot_id


class StreamingUpdater:
    """Consume an event log and keep a recommendation service fresh.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.RecommendationService` to keep
        updated; its current snapshot is the base of the first delta.
    log:
        The :class:`EventLog` to drain.  If the service has none attached,
        this log is attached so ``service.record_interaction`` feeds it.
    fold_in:
        Solver configuration; see :class:`~repro.stream.foldin.FoldInConfig`.
    batch_size:
        Micro-batch size used while draining the log.
    drift:
        Drift thresholds (``None`` uses :class:`DriftConfig` defaults).  The
        monitor measures against the *base trained* snapshot throughout —
        delta snapshots refresh users, not items, so item-side drift keeps
        accumulating until a real retrain resets it via
        :meth:`DriftMonitor.mark_refreshed`.
    min_interactions:
        Users whose *total* history (train + buffered events) is smaller than
        this are deferred: their events stay pending instead of producing a
        noisy one-interaction embedding.
    reuse_index:
        Re-use the service's item index across the swap when the item table is
        unchanged (always true for fold-in deltas); set False to force the
        service's ``index_factory`` rebuild path.
    max_new_users:
        Cap on how far the (dense) user table may grow beyond the snapshot
        the updater *started* from — cumulative across cycles, so a stream of
        steadily increasing garbage ids cannot ratchet the table upward
        either.  Events from user ids past the cap are dropped and counted in
        ``UpdateReport.users_rejected``/``events_rejected`` — one garbage
        64-bit id must not allocate a terabyte-scale table and kill the
        update loop for everyone else.
    """

    def __init__(
        self,
        service,
        log: EventLog,
        fold_in: FoldInConfig | None = None,
        batch_size: int = 256,
        drift: DriftConfig | None = None,
        min_interactions: int = 1,
        reuse_index: bool = True,
        max_new_users: int = 100_000,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if min_interactions < 1:
            raise ValueError("min_interactions must be at least 1")
        if max_new_users < 1:
            raise ValueError("max_new_users must be positive")
        self.service = service
        self.log = log
        self.fold_in = fold_in or FoldInConfig()
        self.batch_size = batch_size
        self.min_interactions = min_interactions
        self.reuse_index = reuse_index
        self.max_new_users = max_new_users
        # Resume from the snapshot's own provenance: a delta snapshot has
        # already absorbed the log up to the end of its delta_event_range, so
        # a replacement updater over the *same* log must not re-apply (and
        # double-count) those events.  Clamp to the log's actual extent — a
        # delta snapshot paired with a fresh, shorter log (e.g. a new serving
        # process starting an empty log) restarts at that log's own numbering
        # instead of skipping its first events.  (Events a drained window
        # deferred are abandoned — the previous updater's buffer is gone.)
        absorbed = service.snapshot.delta_event_range
        self._applied_seq = min(absorbed[1] if absorbed is not None else 0, log.next_seq)
        #: user -> (item array blocks, weight array blocks) held back by
        #: min_interactions; re-considered (and the blocks re-used) next cycle.
        self._deferred: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
        snapshot = service.snapshot
        #: The user-growth cap anchors here, not at the per-cycle snapshot,
        #: so repeated cycles cannot ratchet the table past base + cap.
        self._base_num_users = snapshot.num_users
        # Items are frozen across every delta this updater produces, so the
        # catalogue Gram backing the implicit-negative fold-in term is
        # computed exactly once.
        self._item_gram = (
            item_gram(snapshot.item_embeddings) if self.fold_in.implicit_weight > 0 else None
        )
        self.monitor = DriftMonitor(
            snapshot.item_popularity,
            config=drift or DriftConfig(),
            num_snapshot_users=snapshot.num_users,
        )
        if getattr(service, "event_log", None) is None:
            service.attach_event_log(log)
        # Metric handles bound once (no-ops unless metrics are enabled).
        registry = get_registry()
        self._m_cycles = registry.counter("stream.cycles.total", "update cycles applied")
        self._m_events = registry.counter(
            "stream.events.applied.total", "events drained by update cycles"
        )
        self._m_folds = registry.counter("stream.users.folded.total", "user fold-in solves")
        self._m_events_rate = registry.gauge(
            "stream.events.per_second", "events/sec of the most recent cycle"
        )
        self._m_cycle_latency = registry.histogram(
            "stream.cycle.latency_seconds", "apply() wall time"
        )
        self._m_residual = registry.histogram(
            "stream.foldin.residual",
            "per-user fold-in residuals",
            buckets=tuple(2.0 ** e for e in range(-20, 8)),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def applied_seq(self) -> int:
        """Sequence number up to which the log has been folded in (exclusive)."""
        return self._applied_seq

    def pending(self) -> int:
        """Events recorded but not yet applied."""
        return self.log.next_seq - self._applied_seq

    # ------------------------------------------------------------------ #
    # The update cycle
    # ------------------------------------------------------------------ #
    def apply(self, max_events: int | None = None) -> UpdateReport:
        """Drain pending events, fold users in, and hot-swap a delta snapshot.

        Returns an :class:`UpdateReport`; when nothing was pending (or every
        touched user fell below ``min_interactions``) the report shows zero
        fold-ins and no swap happened.

        A failing cycle is atomic: the cursor stays put, the deferred buffer
        is untouched and the drift monitor rolls back the failed attempt's
        observations, so the next ``apply()`` retries the same window without
        dropping events or double counting drift evidence.
        """
        start = self._applied_seq
        stop = self.log.next_seq
        if max_events is not None:
            stop = min(stop, start + int(max_events))
        mark = self.monitor.checkpoint()
        started = time.perf_counter()
        try:
            with span("stream.apply", start=start, stop=stop):
                report = self._apply_window(start, stop)
        except BaseException:
            self.monitor.rollback(mark)
            raise
        elapsed = time.perf_counter() - started
        self._m_cycles.inc()
        self._m_cycle_latency.observe(elapsed)
        self._m_events.inc(report.events_applied)
        self._m_folds.inc(report.users_folded_in)
        if report.events_applied:
            self._m_events_rate.set(report.events_applied / elapsed if elapsed > 0 else 0.0)
        return report

    def _apply_window(self, start: int, stop: int) -> UpdateReport:
        snapshot: EmbeddingSnapshot = self.service.snapshot

        # Phase 1: drain micro-batches, accumulating per-user new interactions
        # (carrying over interactions deferred by min_interactions last cycle).
        # Grouping is the vectorised EventBatch.by_user — one stable argsort
        # per batch — so the drain never loops over individual events.  Events
        # naming items outside the frozen catalogue, or carrying a NaN/inf
        # weight, are dropped (and counted) rather than raising: a single
        # poison event written straight to the log must not wedge every future
        # cycle at the same sequence number.
        with span("stream.drain"):
            pending_items: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {
                user: (list(items), list(weights))
                for user, (items, weights) in self._deferred.items()
            }
            events_applied = 0
            events_rejected = 0
            for batch in self.log.replay(self.batch_size, start, stop):
                self.monitor.observe_batch(batch)
                for user, (batch_items, batch_weights) in batch.by_user(with_weights=True).items():
                    valid = (
                        (batch_items >= 0)
                        & (batch_items < snapshot.num_items)
                        & np.isfinite(batch_weights)
                    )
                    if not valid.all():
                        events_rejected += int((~valid).sum())
                        batch_items, batch_weights = batch_items[valid], batch_weights[valid]
                        if not batch_items.size:
                            continue
                    items, weights = pending_items.setdefault(int(user), ([], []))
                    items.append(batch_items)
                    weights.append(batch_weights)
                events_applied += len(batch)

        # Phase 2: fold in every user with enough total history.
        with span("stream.fold_in"):
            num_users = snapshot.num_users
            fold_ins: list[FoldInResult] = []
            deferred: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
            new_pair_blocks: list[np.ndarray] = []
            users_rejected = 0
            for user, (item_blocks, weight_blocks) in sorted(pending_items.items()):
                if user >= self._base_num_users + self.max_new_users:
                    # Dense growth to this id would be unbounded; drop, don't die.
                    users_rejected += 1
                    events_rejected += sum(len(block) for block in item_blocks)
                    continue
                new_items = np.concatenate(item_blocks)
                new_weights = np.concatenate(weight_blocks)
                known = user < num_users
                train_items = snapshot.train_items(user) if known else np.empty(0, dtype=np.int64)
                history = np.concatenate([train_items, new_items])
                if len(np.unique(history)) < self.min_interactions:
                    deferred[user] = (item_blocks, weight_blocks)
                    continue
                weights = np.concatenate([np.ones(len(train_items)), new_weights])
                # A known user's trained embedding is blended in when they have
                # one: either train history backs the row, or the row is non-zero
                # (trained without recorded history).  All-zero rows are the gap
                # fillers from earlier table growth — blending against those
                # would just shrink the solve.
                previous = None
                if known:
                    row = snapshot.user_embeddings[user]
                    if len(train_items) or np.any(row):
                        previous = row
                result = fold_in_user(
                    user,
                    snapshot.item_embeddings[history],
                    previous=previous,
                    weights=weights,
                    config=self.fold_in,
                    gram=self._item_gram,
                )
                if not np.isfinite(result.embedding).all():
                    # Finite but extreme weights can still overflow the solve; a
                    # non-finite row would fail the delta snapshot's finite check
                    # and wedge the cycle, so this user's events are dropped.
                    users_rejected += 1
                    events_rejected += len(new_items)
                    continue
                self.monitor.observe_residual(result.residual, count=len(new_items))
                self._m_residual.observe(result.residual)
                fold_ins.append(result)
                new_pair_blocks.append(
                    np.column_stack([np.full(len(new_items), user, dtype=np.int64), new_items])
                )

        # The monitor measures against the base snapshot, so one check serves
        # both reports below.
        with span("stream.drift_check"):
            refresh_signal = self.monitor.check()

        if not fold_ins:
            self._applied_seq = stop
            self._deferred = deferred
            return UpdateReport(
                events_applied=events_applied,
                event_range=(start, stop),
                users_folded_in=0,
                new_users=0,
                users_skipped=len(deferred),
                mean_residual=0.0,
                base_snapshot_id=snapshot.snapshot_id,
                snapshot_id=snapshot.snapshot_id,
                refresh_signal=refresh_signal,
                events_rejected=events_rejected,
                users_rejected=users_rejected,
            )

        # Phase 3: patch the user table, train CSR and popularity counts.
        with span("stream.csr_patch"):
            grown_users = max(num_users, max(r.user_id for r in fold_ins) + 1)
            user_table = np.zeros((grown_users, snapshot.dim), dtype=snapshot.user_embeddings.dtype)
            user_table[:num_users] = snapshot.user_embeddings
            for result in fold_ins:
                user_table[result.user_id] = result.embedding
            pairs = np.concatenate(new_pair_blocks, axis=0)
            indptr, indices = merge_into_csr(
                snapshot.train_indptr, snapshot.train_indices, pairs, grown_users
            )
            popularity = snapshot.item_popularity.astype(np.int64) + np.bincount(
                pairs[:, 1], minlength=snapshot.num_items
            )

        # Phase 4: delta snapshot + zero-downtime hot swap.  The item table is
        # shared with the base, so the existing item index stays valid and is
        # carried across the swap instead of being rebuilt.
        with span("stream.delta_build"):
            delta = build_delta_snapshot(
                snapshot,
                user_embeddings=user_table,
                train_indptr=indptr,
                train_indices=indices,
                item_popularity=popularity,
                event_range=(start, stop),
            )
        with span("stream.swap"):
            reuse = self.reuse_index and delta.item_embeddings is snapshot.item_embeddings
            self.service.swap_snapshot(delta, index=self.service.index if reuse else None)

        # Only a successful swap commits the cursor: if anything above raised,
        # the drained window stays pending and the next apply() retries it
        # instead of silently dropping recorded interactions.
        self._applied_seq = stop
        self._deferred = deferred

        with span("stream.report"):
            return UpdateReport(
                events_applied=events_applied,
                event_range=(start, stop),
                users_folded_in=len(fold_ins),
                new_users=sum(1 for r in fold_ins if r.was_new),
                users_skipped=len(deferred),
                mean_residual=float(np.mean([r.residual for r in fold_ins])),
                base_snapshot_id=snapshot.snapshot_id,
                snapshot_id=delta.snapshot_id,
                refresh_signal=refresh_signal,
                fold_ins=tuple(fold_ins),
                events_rejected=events_rejected,
                users_rejected=users_rejected,
            )

    def export_training_table(self, base_table):
        """Base rating table + every applied event: the input to a retrain.

        When the drift monitor emits a :class:`RefreshSignal`, the answer is
        an offline retrain on everything seen so far.  This returns
        ``base_table`` grown (via :meth:`repro.data.RatingTable.append`, which
        re-validates bounds and entity counts) by all events the updater has
        applied, ready for the preprocessing/training pipeline; event weights
        become the ratings.  Events still pending in the log are excluded —
        they are not part of any served snapshot yet — and so are events the
        update cycles rejected (out-of-catalogue items, user ids past the
        growth cap): a garbage 64-bit user id must not resurface here and
        blow up the retrain's embedding table instead.
        """
        batch = self.log.slice(0, self._applied_seq)
        num_items = self.service.snapshot.num_items
        keep = (
            (batch.items >= 0)
            & (batch.items < num_items)
            & (batch.users < self._base_num_users + self.max_new_users)
        )
        return base_table.append(batch.users[keep], batch.items[keep], batch.weights[keep])

    def run_until_drained(self, max_cycles: int = 1000) -> list[UpdateReport]:
        """Apply repeatedly until no events are pending; returns all reports."""
        reports: list[UpdateReport] = []
        for _ in range(max_cycles):
            if not self.pending():
                break
            reports.append(self.apply())
        return reports
