"""Online serving subsystem: snapshots, top-K retrieval and the service facade.

This package turns a trained recommender into an online system answering
"top-K items for user *u*" queries without re-running the offline evaluator
(and, at query time, without any model or training code at all):

* :mod:`repro.serve.snapshot` — export/load frozen embedding snapshots;
* :mod:`repro.serve.retrieval` — exact blockwise top-K scoring (shared
  :func:`repro.eval.topk` kernel) and the :class:`Retriever` facade, which
  sends each batch to the cheaper of exact scoring and the index;
* :mod:`repro.serve.index` — :class:`IVFIndex`, approximate retrieval that
  probes only the most promising k-means cells of the catalogue;
* :mod:`repro.serve.service` — :class:`RecommendationService` with
  micro-batching, an LRU result cache, popularity cold-start fallback and
  deadline-budget admission control;
* :mod:`repro.serve.canary` — :class:`TrafficSplitter` (deterministic hash
  cohorts, shadow mirroring / canary serving with load shedding) and
  :class:`CanaryAnalyzer` (sequential promote/extend/abort guardrail rules)
  for staged candidate rollouts.

Snapshot file format (``.npz``, format version 1)
-------------------------------------------------

A snapshot is a compressed NumPy archive with five arrays and one JSON string:

===================  =========================================================
``user_embeddings``  ``(num_users, dim)`` float array; row *u* is the frozen,
                     post-propagation representation of user *u*.
``item_embeddings``  ``(num_items, dim)`` float array, same for items.
                     ``user_embeddings @ item_embeddings.T`` reproduces the
                     producing model's ``score_all()`` matrix exactly.
``train_indptr``     ``(num_users + 1,)`` int64 CSR row pointers; user *u*'s
                     training items live at
                     ``train_indices[train_indptr[u]:train_indptr[u + 1]]``.
``train_indices``    int64 item ids, sorted and deduplicated within each user
                     slice; used to mask already-seen items at serving time.
``item_popularity``  ``(num_items,)`` int64 training interaction counts; the
                     cold-start fallback ranks items by this array.
``metadata_json``    JSON object: ``format_version`` (this layout), the
                     producing ``model`` and ``dataset`` names,
                     ``repro_version``, shape fields, ``created_at``
                     (UTC ISO-8601) and ``snapshot_id`` — a 16-hex-digit
                     content hash of both embedding tables that changes iff
                     the embeddings do (the result cache is keyed on it).
===================  =========================================================

Readers must reject files whose ``format_version`` they do not know; writers
bump :data:`repro.serve.snapshot.SNAPSHOT_FORMAT_VERSION` on layout changes.

Quickstart::

    from repro.serve import create_snapshot, load_snapshot, IVFIndex, RecommendationService

    snapshot = create_snapshot(trained_model)     # training process
    snapshot.save("model.npz")

    snapshot = load_snapshot("model.npz")         # serving process (NumPy only)
    service = RecommendationService(snapshot, index_factory=IVFIndex)
    print(service.recommend(user_id=7, k=10).items)
"""

from .canary import (
    CanaryAnalyzer,
    CanaryDecision,
    GuardrailPolicy,
    GuardrailStats,
    TrafficSplitter,
    cohort_hash,
    ranking_overlap,
)
from .index import IVFIndex
from .retrieval import ExactIndex, Retriever, exact_topk, gather_csr_rows, PAD_INDEX
from .service import LRUCache, PendingRecommendation, Recommendation, RecommendationService
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    EmbeddingSnapshot,
    SnapshotIntegrityError,
    active_snapshot_id,
    build_delta_snapshot,
    build_snapshot,
    create_snapshot,
    load_snapshot,
    manifest_path,
    save_snapshot,
)

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotIntegrityError",
    "EmbeddingSnapshot",
    "manifest_path",
    "active_snapshot_id",
    "build_snapshot",
    "build_delta_snapshot",
    "create_snapshot",
    "save_snapshot",
    "load_snapshot",
    "ExactIndex",
    "IVFIndex",
    "Retriever",
    "exact_topk",
    "gather_csr_rows",
    "PAD_INDEX",
    "LRUCache",
    "Recommendation",
    "PendingRecommendation",
    "RecommendationService",
    "CanaryAnalyzer",
    "CanaryDecision",
    "GuardrailPolicy",
    "GuardrailStats",
    "TrafficSplitter",
    "cohort_hash",
    "ranking_overlap",
]
