"""IVF-style approximate top-K retrieval.

The item catalogue is partitioned into ``n_cells`` Voronoi cells with
:func:`repro.cluster.kmeans` (the same implementation DaRec uses for its
preference centres).  A query scores the cell centroids first and then ranks
only the items inside its ``n_probe`` best cells — a fraction of the catalogue
— using the shared :func:`repro.eval.topk` kernel.

Batched search runs *cell-major*: the per-query probe lists are inverted so
that each cell is served by a single BLAS matmul against every query probing
it.  Selection then takes two passes over those score blocks instead of a
top-K per cell.  The first pass splits each (query, cell) block into column
groups and records each group's maximum as a *witness*.  Every witness is
the score of a distinct item, so a query's K-th largest witness is a floor
under its K-th best score.  The second pass keeps only the entries at or
above that floor — a few per query — and one final shared-kernel top-K over
them produces the results.  Training-history exclusion is pre-resolved into
(query, cell, item) triples once per batch and applied as a vectorised
scatter per cell, before the witnesses are taken.

Accuracy is a measurable knob rather than a leap of faith: by default the
probe count self-tunes on the first query batch to the smallest value whose
measured recall against the exact scorer reaches ``target_recall``
(:meth:`IVFIndex.tune_n_probe`), and :meth:`IVFIndex.measure_recall` reports
the overlap for any workload.
"""

from __future__ import annotations

import numpy as np

from ..cluster import kmeans
from ..eval.metrics import mean_recall
from ..eval.topk import topk_indices
from ..obs.metrics import exponential_buckets, get_registry
from .retrieval import PAD_INDEX, exact_topk, gather_csr_rows

__all__ = ["IVFIndex"]

#: Queries sampled from the first batch when auto-tuning ``n_probe``.
_TUNE_SAMPLE = 128


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` below ``bound``.

    The keys are narrowed to the smallest unsigned type holding ``bound``:
    numpy sorts 8- and 16-bit keys with a radix sort, several times faster
    than the timsort it uses for 64-bit ones, with the same result.
    """
    return np.argsort(keys.astype(np.min_scalar_type(bound)), kind="stable")


class IVFIndex:
    """Inverted-file index over an item embedding table.

    Parameters
    ----------
    item_embeddings:
        ``(N, d)`` item table (shared with the snapshot, not copied).
    n_cells:
        Number of k-means cells; defaults to ``round(sqrt(N))``, the classic
        IVF heuristic balancing centroid-scan and cell-scan cost.
    n_probe:
        Number of cells probed per query.  ``None`` (default) self-tunes on
        the first search: the smallest probe count whose measured recall
        against exact scoring reaches ``target_recall`` on a sample of that
        batch.  Pass an integer to pin it explicitly.
    target_recall:
        Recall@K floor used by the self-tuning default.
    seed:
        Seed for the k-means initialisation (the index is deterministic).
    """

    def __init__(
        self,
        item_embeddings: np.ndarray,
        n_cells: int | None = None,
        n_probe: int | None = None,
        target_recall: float = 0.95,
        seed: int = 0,
        kmeans_iterations: int = 25,
    ) -> None:
        self.item_embeddings = np.atleast_2d(np.asarray(item_embeddings))
        num_items = self.item_embeddings.shape[0]
        if num_items == 0:
            raise ValueError("cannot index an empty item catalogue")
        if not 0.0 < target_recall <= 1.0:
            raise ValueError("target_recall must be in (0, 1]")
        if n_cells is None:
            n_cells = max(1, int(round(np.sqrt(num_items))))
        n_cells = int(min(n_cells, num_items))
        if n_cells <= 0:
            raise ValueError("n_cells must be positive")
        result = kmeans(
            self.item_embeddings, n_cells, max_iterations=kmeans_iterations, seed=seed
        )
        self.centroids = result.centers
        self.n_cells = n_cells
        self.target_recall = target_recall
        self.n_probe: int | None = None
        if n_probe is not None:
            self.n_probe = int(n_probe)
            if not 1 <= self.n_probe <= n_cells:
                raise ValueError("n_probe must be in [1, n_cells]")

        # Metric handles bound once (no-ops unless metrics are enabled).
        registry = get_registry()
        self._m_searches = registry.counter("ivf.searches.total", "batched IVF search calls")
        self._m_probes = registry.histogram(
            "ivf.probe.count",
            "cells probed per query in each search",
            buckets=exponential_buckets(1.0, 2.0, 12),
        )
        self._m_cells_scanned = registry.counter(
            "ivf.cells.scanned.total", "distinct cells scored across searches"
        )
        self._m_items_scanned = registry.counter(
            "ivf.items.scanned.total", "item rows scored across searches (query x cell-size sum)"
        )

        labels = result.labels
        order = np.argsort(labels, kind="stable")
        #: Item ids sorted by cell; cell ``c`` owns the slice
        #: ``item_order[cell_offsets[c]:cell_offsets[c + 1]]``.
        self.item_order = order.astype(np.int64)
        counts = np.bincount(labels, minlength=n_cells)
        self.cell_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.cell_of_item = labels.astype(np.int64)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_items(self) -> int:
        return self.item_embeddings.shape[0]

    def cell_sizes(self) -> np.ndarray:
        return self.cell_offsets[1:] - self.cell_offsets[:-1]

    def cell_items(self, cell: int) -> np.ndarray:
        """Item ids owned by ``cell``."""
        return self.item_order[self.cell_offsets[cell]:self.cell_offsets[cell + 1]]

    def _resolve_n_probe(
        self,
        n_probe: int | None,
        queries: np.ndarray,
        k: int,
        exclude: tuple[np.ndarray, np.ndarray] | None,
    ) -> int:
        if n_probe is not None:
            return int(min(n_probe, self.n_cells))
        if self.n_probe is None:
            # First search with the self-tuning default: calibrate on a sample
            # of this batch so the measured recall meets the target.
            sample = queries[:_TUNE_SAMPLE]
            sample_exclude = None
            if exclude is not None:
                indptr, items = exclude
                rows = min(len(sample), len(indptr) - 1)
                sample_exclude = (indptr[: rows + 1], items[: indptr[rows]])
            self.tune_n_probe(sample, k, self.target_recall, exclude=sample_exclude)
        return self.n_probe

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(
        self,
        queries: np.ndarray,
        k: int,
        exclude: tuple[np.ndarray, np.ndarray] | None = None,
        n_probe: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-K: probe the best ``n_probe`` cells per query.

        Same contract as :meth:`repro.serve.retrieval.ExactIndex.search`:
        returns ``(indices, scores)`` of shape ``(Q, k)``, descending score,
        with ``PAD_INDEX`` marking slots that no finite-scored candidate
        filled (small cells or excluded items).
        """
        queries = np.atleast_2d(np.asarray(queries))
        if k <= 0:
            raise ValueError("k must be positive")
        n_probe = self._resolve_n_probe(n_probe, queries, k, exclude)
        num_queries = queries.shape[0]
        self._m_searches.inc()
        self._m_probes.observe(n_probe)

        # Rank cells by centroid inner product (scoring is inner product too).
        centroid_scores = queries @ self.centroids.T
        probed = topk_indices(centroid_scores, n_probe, sort=False)  # (Q, p)

        # Invert to cell-major order: which queries probe each cell.  One
        # stable sort replaces any per-query Python work; ``order`` maps each
        # cell-major (query, cell) pair back to its place in ``probed``.
        flat_cells = probed.ravel()
        order = _stable_argsort(flat_cells, self.n_cells)
        sorted_cells = flat_cells[order]
        query_of = order // n_probe
        cell_lo = np.searchsorted(sorted_cells, np.arange(self.n_cells), side="left")
        cell_hi = np.searchsorted(sorted_cells, np.arange(self.n_cells), side="right")

        exclusions = self._cell_major_exclusions(probed, exclude)

        # Pass 1: score each probed cell and take the witnesses, one row per
        # cell-major (query, cell) pair.  With ``groups`` column groups per
        # block every query has at least 2k witness slots (cells smaller than
        # that leave some at -inf).
        groups = -(-2 * k // n_probe)
        witnesses = np.full((len(order), groups), -np.inf)
        blocks = []
        row_of_query = np.full(num_queries, -1, dtype=np.int64)
        for cell in np.unique(sorted_cells):
            span = slice(cell_lo[cell], cell_hi[cell])
            cell_queries = query_of[span]
            items = self.cell_items(cell)
            if items.size == 0:
                continue
            self._m_cells_scanned.inc()
            self._m_items_scanned.inc(len(cell_queries) * items.size)
            scores = queries[cell_queries] @ self.item_embeddings[items].T
            if exclusions is not None:
                ex_queries, ex_positions = exclusions.get(cell, (None, None))
                if ex_queries is not None:
                    # Map global query ids to rows of this cell's score matrix
                    # (a query probes a given cell at most once).
                    row_of_query[cell_queries] = np.arange(len(cell_queries))
                    scores[row_of_query[ex_queries], ex_positions] = -np.inf
            group_starts = np.arange(0, items.size, -(-items.size // groups))
            witnesses[span, : group_starts.size] = np.maximum.reduceat(scores, group_starts, axis=1)
            blocks.append((span, items, scores))

        # At least k entries of a query's blocks score at or above its k-th
        # largest witness, so every entry of its top K does too.
        by_query = np.empty_like(witnesses)
        by_query[order] = witnesses
        floor = np.partition(by_query.reshape(num_queries, n_probe * groups), -k, axis=1)[:, -k]
        floor = floor[query_of]

        # Pass 2: keep those entries and lay them out one row per query.
        kept_queries = [np.empty(0, dtype=np.int64)]
        kept_ids = [np.empty(0, dtype=np.int64)]
        kept_scores = [np.empty(0)]
        for span, items, scores in blocks:
            flat = np.flatnonzero(scores >= floor[span, None])
            rows, cols = np.divmod(flat, items.size)
            kept_queries.append(query_of[span][rows])
            kept_ids.append(items[cols])
            kept_scores.append(scores.ravel()[flat])
        kept_queries = np.concatenate(kept_queries)
        by_row = _stable_argsort(kept_queries, num_queries)
        kept_queries = kept_queries[by_row]
        counts = np.bincount(kept_queries, minlength=num_queries)
        column = np.arange(kept_queries.size) - np.repeat(np.cumsum(counts) - counts, counts)
        width = max(int(counts.max(initial=0)), 1)
        pool_ids = np.full((num_queries, width), PAD_INDEX, dtype=np.int64)
        pool_scores = np.full((num_queries, width), -np.inf)
        pool_ids[kept_queries, column] = np.concatenate(kept_ids)[by_row]
        pool_scores[kept_queries, column] = np.concatenate(kept_scores)[by_row]

        final = topk_indices(pool_scores, min(k, width))
        out_scores = np.take_along_axis(pool_scores, final, axis=1)
        out_ids = np.take_along_axis(pool_ids, final, axis=1)
        out_ids[np.isneginf(out_scores)] = PAD_INDEX
        if out_ids.shape[1] < k:  # the probed cells held fewer than k items
            pad = k - out_ids.shape[1]
            out_ids = np.pad(out_ids, ((0, 0), (0, pad)), constant_values=PAD_INDEX)
            out_scores = np.pad(out_scores, ((0, 0), (0, pad)), constant_values=-np.inf)
        return out_ids, out_scores

    def _cell_major_exclusions(
        self,
        probed: np.ndarray,
        exclude: tuple[np.ndarray, np.ndarray] | None,
    ) -> dict[int, tuple[np.ndarray, np.ndarray]] | None:
        """Pre-resolve excluded (query, item) pairs into per-cell scatters.

        Returns ``{cell: (query_ids, within_cell_positions)}`` covering every
        excluded item that falls inside a cell its owner actually probes.
        """
        if exclude is None:
            return None
        indptr, items = exclude
        if items.size == 0:
            return None
        num_queries, n_probe = probed.shape
        counts = indptr[1:] - indptr[:-1]
        pair_queries = np.repeat(np.arange(num_queries), counts)
        pair_cells = self.cell_of_item[items]
        # Membership: is the pair's cell among the pair's query's probed cells?
        probe_mask = np.zeros((num_queries, self.n_cells), dtype=bool)
        probe_mask[np.repeat(np.arange(num_queries), n_probe), probed.ravel()] = True
        keep = probe_mask[pair_queries, pair_cells]
        if not keep.any():
            return None
        pair_queries = pair_queries[keep]
        pair_cells = pair_cells[keep]
        pair_positions = self._position_in_cell[items[keep]]
        order = np.argsort(pair_cells, kind="stable")
        pair_queries, pair_cells, pair_positions = (
            pair_queries[order], pair_cells[order], pair_positions[order]
        )
        result: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        boundaries = np.flatnonzero(np.diff(pair_cells)) + 1
        for chunk_queries, chunk_cells, chunk_positions in zip(
            np.split(pair_queries, boundaries),
            np.split(pair_cells, boundaries),
            np.split(pair_positions, boundaries),
        ):
            result[int(chunk_cells[0])] = (chunk_queries, chunk_positions)
        return result

    @property
    def _position_in_cell(self) -> np.ndarray:
        """Item id -> offset inside its own cell's slice (lazily built)."""
        cached = getattr(self, "_position_cache", None)
        if cached is None:
            counts = self.cell_sizes()
            cached = np.empty(self.num_items, dtype=np.int64)
            cached[self.item_order] = np.arange(self.num_items) - np.repeat(
                self.cell_offsets[:-1], counts
            )
            self._position_cache = cached
        return cached

    # ------------------------------------------------------------------ #
    # Accuracy knobs
    # ------------------------------------------------------------------ #
    def measure_recall(
        self,
        queries: np.ndarray,
        k: int,
        exclude: tuple[np.ndarray, np.ndarray] | None = None,
        n_probe: int | None = None,
    ) -> float:
        """Mean overlap with the exact top-K over the given queries.

        For each query: ``|approx ∩ exact| / |exact|`` (padding ignored), i.e.
        recall of the true top-K list.  1.0 means the approximation is
        indistinguishable from exact scoring on this workload.
        """
        queries = np.atleast_2d(np.asarray(queries))
        n_probe = self.n_probe if n_probe is None else n_probe
        if n_probe is None:
            raise ValueError("n_probe is untuned; pass one explicitly or tune first")
        exact_ids, _ = exact_topk(queries, self.item_embeddings, k, exclude=exclude)
        return self._recall_against(exact_ids, queries, k, exclude, n_probe)

    def _recall_against(
        self,
        exact_ids: np.ndarray,
        queries: np.ndarray,
        k: int,
        exclude: tuple[np.ndarray, np.ndarray] | None,
        n_probe: int,
    ) -> float:
        approx_ids, _ = self.search(queries, k, exclude=exclude, n_probe=n_probe)
        rows = np.flatnonzero((exact_ids != PAD_INDEX).any(axis=1))
        if not rows.size:
            return 1.0
        truth = [exact_ids[row][exact_ids[row] != PAD_INDEX] for row in rows]
        return mean_recall(approx_ids[rows], truth, k)

    def tune_n_probe(
        self,
        queries: np.ndarray,
        k: int,
        target_recall: float | None = None,
        exclude: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> int:
        """Set ``n_probe`` to the smallest value meeting ``target_recall``.

        Measures recall against the exact scorer on the sample ``queries`` for
        increasing probe counts; falls back to probing every cell when the
        target is unreachable.  Returns the chosen value.
        """
        target_recall = self.target_recall if target_recall is None else target_recall
        if not 0.0 < target_recall <= 1.0:
            raise ValueError("target_recall must be in (0, 1]")
        queries = np.atleast_2d(np.asarray(queries))
        # The exact reference is the expensive half; compute it once.  Recall
        # is monotone in the probe count, so a doubling scan for an upper
        # bound followed by binary search finds the smallest passing value in
        # O(log n_cells) searches instead of a linear sweep.
        exact_ids, _ = exact_topk(queries, self.item_embeddings, k, exclude=exclude)

        def passes(n_probe: int) -> bool:
            return self._recall_against(exact_ids, queries, k, exclude, n_probe) >= target_recall

        high = 1
        while high < self.n_cells and not passes(high):
            high = min(high * 2, self.n_cells)
        if high == self.n_cells and not passes(high):
            self.n_probe = self.n_cells  # target unreachable: probe everything
            return self.n_cells
        low = high // 2 + 1 if high > 1 else 1
        while low < high:
            mid = (low + high) // 2
            if passes(mid):
                high = mid
            else:
                low = mid + 1
        self.n_probe = high
        return high
