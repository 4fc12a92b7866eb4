"""Streaming ingestion and incremental-update subsystem.

The offline pipeline trains and exports a frozen
:class:`~repro.serve.snapshot.EmbeddingSnapshot`; the serving layer answers
queries from it.  This package adds the missing half of a production loop —
what happens *between* retrains:

* :mod:`repro.stream.events` — an append-only interaction event log with
  columnar NumPy storage, monotone sequence numbers and replay/window
  iterators; the single source of truth for post-snapshot traffic.
* :mod:`repro.stream.foldin` — incremental user representation updates
  against the frozen item table: a closed-form ridge solve turns an
  interaction history into a user vector, growing the table for brand-new
  users and blending decayed updates for existing ones.
* :mod:`repro.stream.drift` — popularity-KL, fold-in-residual and
  cold-user-ratio monitors over the stream that emit a typed
  :class:`~repro.stream.drift.RefreshSignal` when a real retrain is due.
* :mod:`repro.stream.updater` — :class:`~repro.stream.updater.StreamingUpdater`,
  which drains the log in micro-batches, applies fold-ins, patches the train
  CSR and popularity counts, builds a provenance-tracked *delta snapshot* and
  hot-swaps it into a running
  :class:`~repro.serve.service.RecommendationService` with zero downtime
  (items are frozen, so the existing retrieval index is carried across).

Quickstart::

    from repro.serve import RecommendationService, load_snapshot
    from repro.stream import EventLog, StreamingUpdater

    service = RecommendationService(load_snapshot("model.npz"))
    log = EventLog()
    updater = StreamingUpdater(service, log)

    service.record_interaction(user_id=10_000, item_id=3)   # brand-new user
    service.record_interaction(user_id=10_000, item_id=17)
    service.record_interaction(user_id=10_000, item_id=42)
    updater.apply()                                          # fold in + hot swap
    service.recommend(10_000).source                         # -> "model"
"""

from .drift import DriftConfig, DriftMetrics, DriftMonitor, RefreshSignal, popularity_kl
from .events import EventBatch, EventLog, InteractionEvent, WalCorruptionWarning
from .foldin import FoldInConfig, FoldInResult, fold_in_user, ridge_fold_in
from .simulate import StreamSimulationConfig, StreamSimulationResult, simulate_stream
from .updater import StreamingUpdater, UpdateReport, live_popularity, merge_into_csr

__all__ = [
    "InteractionEvent",
    "EventBatch",
    "EventLog",
    "WalCorruptionWarning",
    "FoldInConfig",
    "FoldInResult",
    "ridge_fold_in",
    "fold_in_user",
    "DriftConfig",
    "DriftMetrics",
    "DriftMonitor",
    "RefreshSignal",
    "popularity_kl",
    "StreamingUpdater",
    "UpdateReport",
    "merge_into_csr",
    "live_popularity",
    "StreamSimulationConfig",
    "StreamSimulationResult",
    "simulate_stream",
]
