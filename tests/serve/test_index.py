"""IVF approximate index: correctness, recall knob, self-tuning default."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import PAD_INDEX, ExactIndex, IVFIndex, exact_topk


@pytest.fixture()
def clustered_corpus(rng):
    """Items in well-separated direction clusters (IVF-friendly geometry)."""
    centres = rng.normal(size=(6, 12)) * 4.0
    items = np.concatenate([centre + rng.normal(size=(40, 12)) * 0.3 for centre in centres])
    queries = np.concatenate([centre + rng.normal(size=(5, 12)) * 0.3 for centre in centres])
    return queries, items


class TestConstruction:
    def test_default_cell_count_is_sqrt(self, clustered_corpus):
        _, items = clustered_corpus
        index = IVFIndex(items)
        assert index.n_cells == round(np.sqrt(len(items)))

    def test_cells_partition_catalogue(self, clustered_corpus):
        _, items = clustered_corpus
        index = IVFIndex(items, n_cells=9)
        gathered = np.concatenate([index.cell_items(c) for c in range(index.n_cells)])
        np.testing.assert_array_equal(np.sort(gathered), np.arange(len(items)))
        assert index.cell_sizes().sum() == len(items)

    def test_invalid_inputs(self, clustered_corpus):
        _, items = clustered_corpus
        with pytest.raises(ValueError):
            IVFIndex(np.empty((0, 4)))
        with pytest.raises(ValueError):
            IVFIndex(items, n_cells=4, n_probe=9)
        with pytest.raises(ValueError):
            IVFIndex(items, target_recall=0.0)

    def test_deterministic_given_seed(self, clustered_corpus):
        queries, items = clustered_corpus
        a = IVFIndex(items, seed=3, n_probe=2)
        b = IVFIndex(items, seed=3, n_probe=2)
        ai, _ = a.search(queries, 7)
        bi, _ = b.search(queries, 7)
        np.testing.assert_array_equal(ai, bi)


class TestSearch:
    def test_full_probe_equals_exact(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items, n_cells=8)
        approx_ids, approx_scores = index.search(queries, 11, n_probe=8)
        exact_ids, exact_scores = exact_topk(queries, items, 11)
        # Same item sets and scores (tie order inside equal scores may vary).
        np.testing.assert_array_equal(np.sort(approx_ids), np.sort(exact_ids))
        np.testing.assert_allclose(np.sort(approx_scores), np.sort(exact_scores))

    def test_results_sorted_descending(self, clustered_corpus):
        queries, items = clustered_corpus
        _, scores = IVFIndex(items, n_probe=3).search(queries, 9)
        assert (np.diff(scores, axis=1) <= 1e-12).all()

    def test_high_recall_on_clustered_data(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items, n_cells=6, n_probe=2, seed=0)
        assert index.measure_recall(queries, 10) > 0.9

    def test_exclusions_respected(self, clustered_corpus):
        queries, items = clustered_corpus
        rng = np.random.default_rng(1)
        per_query = [rng.choice(len(items), size=20, replace=False) for _ in queries]
        indptr = np.concatenate([[0], np.cumsum([len(e) for e in per_query])])
        exclude = (indptr, np.concatenate(per_query))
        index = IVFIndex(items, n_probe=3)
        indices, _ = index.search(queries, 10, exclude=exclude)
        for row, banned in enumerate(per_query):
            returned = indices[row][indices[row] != PAD_INDEX]
            assert not np.isin(returned, banned).any()

    def test_exclusions_with_full_probe_match_exact(self, clustered_corpus):
        queries, items = clustered_corpus
        banned = np.arange(0, 60)
        indptr = np.arange(len(queries) + 1) * len(banned)
        exclude = (indptr, np.tile(banned, len(queries)))
        index = IVFIndex(items, n_cells=7)
        approx_ids, _ = index.search(queries, 9, exclude=exclude, n_probe=7)
        exact_ids, _ = exact_topk(queries, items, 9, exclude=exclude)
        np.testing.assert_array_equal(np.sort(approx_ids), np.sort(exact_ids))

    @pytest.mark.parametrize("n_probe", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 7, 30, 200])
    def test_partial_probe_is_exact_over_probed_cells(self, n_probe, k):
        """Every search returns the exact top-K of the cells it probes."""
        rng = np.random.default_rng(5)
        items = rng.normal(size=(300, 8))
        queries = rng.normal(size=(40, 8))
        banned = [rng.choice(len(items), size=25, replace=False) for _ in queries]
        indptr = np.concatenate([[0], np.cumsum([len(b) for b in banned])])
        exclude = (indptr, np.concatenate(banned))
        index = IVFIndex(items, n_cells=17, seed=0)
        ids, scores = index.search(queries, k, exclude=exclude, n_probe=n_probe)

        centroid_scores = queries @ index.centroids.T
        for row, query in enumerate(queries):
            probed = np.argsort(-centroid_scores[row])[:n_probe]
            candidates = np.setdiff1d(
                np.concatenate([index.cell_items(c) for c in probed]), banned[row]
            )
            reference = candidates[np.argsort(-(items[candidates] @ query))][:k]
            found = ids[row][ids[row] != PAD_INDEX]
            np.testing.assert_array_equal(found, reference)
            np.testing.assert_allclose(scores[row][: len(found)], items[found] @ query)
            assert np.isneginf(scores[row][len(found):]).all()

    def test_k_larger_than_probed_candidates_pads(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items, n_cells=8, n_probe=1)
        indices, scores = index.search(queries[:3], len(items), n_probe=1)
        assert indices.shape == (3, len(items))
        assert (indices == PAD_INDEX).any(axis=1).all()
        assert np.isneginf(scores[indices == PAD_INDEX]).all()

    def test_single_cell_index(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items, n_cells=1)
        approx_ids, _ = index.search(queries, 5)
        exact_ids, _ = exact_topk(queries, items, 5)
        np.testing.assert_array_equal(np.sort(approx_ids), np.sort(exact_ids))

    def test_invalid_k(self, clustered_corpus):
        queries, items = clustered_corpus
        with pytest.raises(ValueError):
            IVFIndex(items, n_probe=2).search(queries, 0)


class TestRecallKnob:
    def test_recall_monotone_in_probes(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items, n_cells=8)
        recalls = [index.measure_recall(queries, 10, n_probe=p) for p in (1, 4, 8)]
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] == pytest.approx(1.0)

    def test_tune_reaches_target(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items, n_cells=8)
        chosen = index.tune_n_probe(queries, 10, target_recall=0.95)
        assert 1 <= chosen <= 8
        assert index.n_probe == chosen
        assert index.measure_recall(queries, 10) >= 0.95

    def test_tune_is_minimal(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items, n_cells=8)
        chosen = index.tune_n_probe(queries, 10, target_recall=0.95)
        if chosen > 1:
            assert index.measure_recall(queries, 10, n_probe=chosen - 1) < 0.95

    def test_default_self_tunes_on_first_search(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items, n_cells=8)
        assert index.n_probe is None
        index.search(queries, 10)
        assert index.n_probe is not None
        assert index.measure_recall(queries, 10) >= index.target_recall

    def test_untuned_measure_requires_probe(self, clustered_corpus):
        queries, items = clustered_corpus
        index = IVFIndex(items)
        with pytest.raises(ValueError, match="untuned"):
            index.measure_recall(queries, 5)
