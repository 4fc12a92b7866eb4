"""Exact top-K retrieval over an item embedding table, and per-batch routing.

The exact scorer is the serving counterpart of the all-ranking evaluator: one
matmul per query block plus the shared :func:`repro.eval.topk` kernel.  Items
are processed in blocks of ``block_size`` so that arbitrarily large catalogues
never materialise a full ``queries x items`` score matrix; a running top-K
candidate pool is merged across blocks.

Excluded items (a user's training history) are assigned a score of ``-inf``;
result positions that could not be filled with a finite-scored item carry the
sentinel index ``-1``.

:class:`Retriever` is the single caller of every index, and it sends each
batch to the cheaper scorer.  An approximate (IVF) index pays a fixed cost per
cell it touches, so for the few queries a service batch holds, scoring the
whole catalogue exactly is cheaper — and exact.  :func:`prefers_exact` makes
the choice from operation counts alone (batch size, catalogue size, cell and
probe counts), never from timing, so the same batch always takes the same
path and its answer is reproducible.
"""

from __future__ import annotations

import numpy as np

from ..eval.topk import topk_indices
from ..obs.metrics import get_registry

__all__ = [
    "ExactIndex",
    "IVF_CELL_COST",
    "PAD_INDEX",
    "Retriever",
    "exact_topk",
    "gather_csr_rows",
    "prefers_exact",
]

#: Sentinel item id marking an unfilled slot in a top-K result.
PAD_INDEX = -1

#: Fixed cost of one IVF cell touched by a search, in item rows scored.  Fitted
#: (least squares on log time) to search times of the ``perfbench`` serve
#: corpus — 2,240 items, d=16, 47 cells, ``n_probe`` 19, k=20, batches of 1 to
#: 256 queries on 2 CPUs — where exact scoring wins up to 64 queries per
#: search and IVF from 128.  It was fitted and checked on that corpus and
#: machine only; at 560 items and 256 queries it is known to pick IVF where
#: exact scoring is ~1.6x faster.  Other catalogue sizes and machines are
#: unverified.
IVF_CELL_COST = 2300


def prefers_exact(num_queries: int, num_items: int, n_cells: int, n_probe: int) -> bool:
    """Whether exact scoring is estimated to beat an IVF search for one batch.

    Costs are counted in item rows scored.  Exact scoring costs ``Q·N``; IVF
    costs ``Q·n_probe·N/n_cells`` plus :data:`IVF_CELL_COST` per cell it
    touches, at most ``min(n_cells, Q·n_probe)``.  The comparison is in exact
    integer arithmetic, so the decision is a pure function of its arguments.
    Ties go to exact scoring, whose answers are exact.  The estimate is only
    as good as :data:`IVF_CELL_COST`, which was fitted on one corpus.
    """
    touched = min(n_cells, num_queries * n_probe)
    exact = num_queries * num_items * n_cells
    ivf = num_queries * n_probe * num_items + IVF_CELL_COST * touched * n_cells
    return exact <= ivf


def gather_csr_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slice ``rows`` out of a CSR structure without a Python loop per row.

    Returns ``(batch_indptr, batch_indices)`` describing the same rows
    renumbered ``0..len(rows)-1``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    batch_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    if total == 0:
        return batch_indptr, np.empty(0, dtype=indices.dtype)
    # Multi-range gather: positions count up from each row's start offset.
    offsets = np.arange(total) - np.repeat(batch_indptr[:-1], counts)
    flat = np.repeat(starts, counts) + offsets
    return batch_indptr, indices[flat]


def _mask_excluded_block(
    scores: np.ndarray,
    exclude: tuple[np.ndarray, np.ndarray] | None,
    start: int,
    stop: int,
) -> None:
    """Set excluded item columns in ``[start, stop)`` to ``-inf`` in place."""
    if exclude is None:
        return
    indptr, items = exclude
    if items.size == 0:
        return
    keep = (items >= start) & (items < stop)
    if not keep.any():
        return
    counts = indptr[1:] - indptr[:-1]
    rows = np.repeat(np.arange(len(counts)), counts)[keep]
    scores[rows, items[keep] - start] = -np.inf


def exact_topk(
    queries: np.ndarray,
    item_embeddings: np.ndarray,
    k: int,
    exclude: tuple[np.ndarray, np.ndarray] | None = None,
    block_size: int = 8192,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact inner-product top-K of every query against the full catalogue.

    Parameters
    ----------
    queries:
        ``(Q, d)`` query vectors (a single ``(d,)`` vector is promoted).
    item_embeddings:
        ``(N, d)`` item table.
    k:
        List length; results are padded with ``PAD_INDEX`` when fewer than
        ``k`` items have finite scores.
    exclude:
        Optional ``(indptr, indices)`` CSR pair over the *batch* rows listing
        item ids that must never be returned (see :func:`gather_csr_rows`).
    block_size:
        Number of items scored per matmul block.

    Returns
    -------
    ``(indices, scores)`` of shape ``(Q, k)`` each, sorted by descending score.
    """
    queries = np.atleast_2d(np.asarray(queries))
    item_embeddings = np.asarray(item_embeddings)
    if k <= 0:
        raise ValueError("k must be positive")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    num_items = item_embeddings.shape[0]

    if num_items <= block_size:
        # Fast path: a single matmul covers the catalogue.
        scores = queries @ item_embeddings.T
        _mask_excluded_block(scores, exclude, 0, num_items)
        return _finalise(scores, np.arange(num_items), k)

    pool_indices: np.ndarray | None = None
    pool_scores: np.ndarray | None = None
    for start in range(0, num_items, block_size):
        stop = min(start + block_size, num_items)
        block_scores = queries @ item_embeddings[start:stop].T
        _mask_excluded_block(block_scores, exclude, start, stop)
        block_k = min(k, stop - start)
        selected = topk_indices(block_scores, block_k, sort=False)
        selected_scores = np.take_along_axis(block_scores, selected, axis=1)
        selected = selected + start
        if pool_indices is None:
            pool_indices, pool_scores = selected, selected_scores
        else:
            pool_indices = np.concatenate([pool_indices, selected], axis=1)
            pool_scores = np.concatenate([pool_scores, selected_scores], axis=1)
        if pool_indices.shape[1] > 4 * k:
            # Re-compact the candidate pool so it stays O(k) wide.
            keep = topk_indices(pool_scores, k, sort=False)
            pool_indices = np.take_along_axis(pool_indices, keep, axis=1)
            pool_scores = np.take_along_axis(pool_scores, keep, axis=1)

    order = topk_indices(pool_scores, k)
    indices = np.take_along_axis(pool_indices, order, axis=1)
    scores = np.take_along_axis(pool_scores, order, axis=1)
    return _pad(indices, scores, k)


def _finalise(scores: np.ndarray, candidate_ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared top-K + padding epilogue over a dense candidate score matrix."""
    selected = topk_indices(scores, k)
    selected_scores = np.take_along_axis(scores, selected, axis=1)
    return _pad(candidate_ids[selected], selected_scores, k)


def _pad(indices: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Widen to ``k`` columns and blank out ``-inf``-scored (excluded) slots."""
    num_queries, width = indices.shape
    if width < k:
        indices = np.concatenate(
            [indices, np.full((num_queries, k - width), PAD_INDEX, dtype=indices.dtype)], axis=1
        )
        scores = np.concatenate(
            [scores, np.full((num_queries, k - width), -np.inf, dtype=scores.dtype)], axis=1
        )
    indices[np.isneginf(scores)] = PAD_INDEX
    return indices, scores


class ExactIndex:
    """Blockwise exact retrieval behind the common ``search`` protocol."""

    def __init__(self, item_embeddings: np.ndarray, block_size: int = 8192) -> None:
        self.item_embeddings = np.atleast_2d(np.asarray(item_embeddings))
        self.block_size = block_size

    @property
    def num_items(self) -> int:
        return self.item_embeddings.shape[0]

    def search(
        self,
        queries: np.ndarray,
        k: int,
        exclude: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        return exact_topk(queries, self.item_embeddings, k, exclude=exclude, block_size=self.block_size)


class Retriever:
    """Bind a snapshot to an index, with training-history masking.

    ``index`` is any object following the search protocol
    ``search(queries, k, exclude) -> (indices, scores)``; when omitted an
    :class:`ExactIndex` over the snapshot's item table is built.  An index
    with an ``n_probe`` attribute is approximate (IVF): once its probe count is
    set, each batch for which :func:`prefers_exact` holds is scored exactly
    against ``snapshot.item_embeddings`` instead, bit-identical to
    :class:`ExactIndex`.  Every other index, and an approximate one that has
    yet to tune ``n_probe``, always gets ``index.search``.
    """

    def __init__(self, snapshot, index=None, mask_train: bool = True) -> None:
        self.snapshot = snapshot
        self.index = index if index is not None else ExactIndex(snapshot.item_embeddings)
        self.mask_train = mask_train
        self._approximate = hasattr(self.index, "n_probe")
        # Metric handles bound once (no-ops unless metrics are enabled).
        registry = get_registry()
        searches = "batched top-K searches served, by the scorer that ranked them"
        self._m_exact = registry.counter(
            "serve.retrieval.searches.total", searches, labels={"scorer": "exact"}
        )
        self._m_index = (
            registry.counter("serve.retrieval.searches.total", searches, labels={"scorer": "ivf"})
            if self._approximate
            else self._m_exact
        )

    def exclusions_for(self, user_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        if not self.mask_train:
            return None
        return gather_csr_rows(
            self.snapshot.train_indptr, self.snapshot.train_indices, np.asarray(user_ids)
        )

    def routes_to_exact(self, num_queries: int) -> bool:
        """Whether a batch of ``num_queries`` skips the index for exact scoring."""
        if not self._approximate or self.index.n_probe is None:
            return False
        return prefers_exact(num_queries, self.snapshot.num_items, self.index.n_cells, self.index.n_probe)

    def topk_for_users(self, user_ids, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-K item ids and scores for known user ids, one row per user."""
        user_ids = np.atleast_1d(np.asarray(user_ids, dtype=np.int64))
        if user_ids.size and (user_ids.min() < 0 or user_ids.max() >= self.snapshot.num_users):
            raise IndexError("user id out of range for this snapshot")
        queries = self.snapshot.user_embeddings[user_ids]
        exclude = self.exclusions_for(user_ids)
        if self.routes_to_exact(len(user_ids)):
            result = exact_topk(queries, self.snapshot.item_embeddings, k, exclude=exclude)
            self._m_exact.inc()
        else:
            result = self.index.search(queries, k, exclude=exclude)
            self._m_index.inc()
        return result
