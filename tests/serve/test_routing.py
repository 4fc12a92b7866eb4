"""Per-batch scorer routing in :class:`Retriever.topk_for_users`."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.obs import use_registry
from repro.serve import ExactIndex, IVFIndex, RecommendationService, Retriever, build_snapshot
from repro.serve.retrieval import PAD_INDEX, prefers_exact

NUM_USERS, NUM_ITEMS, DIM = 150, 1000, 8
N_CELLS, N_PROBE = 16, 2
SMALL, LARGE = 4, 120


@pytest.fixture(scope="module")
def snapshot():
    rng = np.random.default_rng(11)
    users = rng.normal(size=(NUM_USERS, DIM))
    items = rng.normal(size=(NUM_ITEMS, DIM))
    pairs = [(user, item) for user in range(NUM_USERS) for item in rng.choice(NUM_ITEMS, 5, replace=False)]
    # User 1 has seen all but 3 items, so any k > 3 leaves PAD-filled slots.
    pairs += [(1, item) for item in range(3, NUM_ITEMS)]
    return build_snapshot(users, items, train_pairs=np.array(pairs))


@pytest.fixture(scope="module")
def tuned(snapshot):
    return IVFIndex(snapshot.item_embeddings, n_cells=N_CELLS, n_probe=N_PROBE, seed=0)


def spy(monkeypatch, cls):
    """Count calls to ``cls.search`` while still running it."""
    calls = []
    original = cls.search

    def search(self, queries, *args, **kwargs):
        calls.append(len(queries))
        return original(self, queries, *args, **kwargs)

    monkeypatch.setattr(cls, "search", search)
    return calls


def test_batch_sizes_straddle_the_crossover():
    assert prefers_exact(SMALL, NUM_ITEMS, N_CELLS, N_PROBE)
    assert not prefers_exact(LARGE, NUM_ITEMS, N_CELLS, N_PROBE)


@pytest.mark.parametrize("k", [5, 20, NUM_ITEMS + 7])
def test_small_batch_is_bit_identical_to_exact_index(snapshot, tuned, monkeypatch, k):
    calls = spy(monkeypatch, IVFIndex)
    users = np.array([0, 1, 7, 1])  # user 1 twice: its rows are PAD-filled
    ids, scores = Retriever(snapshot, tuned).topk_for_users(users, k)
    exact = Retriever(snapshot, ExactIndex(snapshot.item_embeddings))
    exact_ids, exact_scores = exact.topk_for_users(users, k)
    assert calls == []
    assert np.array_equal(ids, exact_ids)
    assert np.array_equal(scores, exact_scores)
    assert (ids[1] == PAD_INDEX).sum() >= k - 3
    for row, user in enumerate(users):
        assert not np.isin(ids[row], snapshot.train_items(user)).any()


def test_untuned_first_batch_searches_the_index_and_tunes_it(snapshot, monkeypatch):
    calls = spy(monkeypatch, IVFIndex)
    index = IVFIndex(snapshot.item_embeddings, n_cells=N_CELLS, seed=0)
    retriever = Retriever(snapshot, index)
    retriever.topk_for_users(np.arange(SMALL), 10)
    assert calls[0] == SMALL  # the batch itself, then the tuning probes
    assert index.n_probe is not None
    searched = len(calls)
    retriever.topk_for_users(np.arange(SMALL), 10)  # tuned now: scored exactly
    assert len(calls) == searched


def test_large_batch_searches_the_index(snapshot, tuned, monkeypatch):
    calls = spy(monkeypatch, IVFIndex)
    Retriever(snapshot, tuned).topk_for_users(np.arange(LARGE), 10)
    assert calls == [LARGE]


@pytest.mark.parametrize("size", [1, SMALL, LARGE])
def test_exact_index_always_searched(snapshot, monkeypatch, size):
    calls = spy(monkeypatch, ExactIndex)
    Retriever(snapshot, ExactIndex(snapshot.item_embeddings)).topk_for_users(np.arange(size), 10)
    assert calls == [size]


@pytest.mark.parametrize("size", [1, SMALL, LARGE])
def test_fake_index_always_searched(snapshot, size):
    class Fake:
        calls = []

        def search(self, queries, k, exclude=None):
            Fake.calls.append(len(queries))
            return np.zeros((len(queries), k), dtype=np.int64), np.zeros((len(queries), k))

    Retriever(snapshot, Fake()).topk_for_users(np.arange(size), 10)
    assert Fake.calls == [size]


def test_decision_is_a_pure_function_of_the_shape(snapshot, tuned):
    grid = list(itertools.product([0, 1, 4, 8, 64, 256, 4096], [1, 140, 2240, 10**6], [1, 47, 1000], [1, 19]))
    first = [prefers_exact(*cell) for cell in grid]
    assert first == [prefers_exact(*cell) for cell in grid]
    retriever = Retriever(snapshot, tuned)
    routes = [retriever.routes_to_exact(size) for size in range(1, 300)]
    assert routes == [retriever.routes_to_exact(size) for size in range(1, 300)]
    # Exact up to a crossover, IVF beyond it: one switch, never back.
    assert routes[0] and not routes[-1]
    assert routes == sorted(routes, reverse=True)


def test_fitted_crossover_on_the_serve_corpus():
    """2,240 items, 47 cells, n_probe 19: measured exact-faster up to 64 queries, IVF from 128."""
    assert all(prefers_exact(q, 2240, 47, 19) for q in (1, 4, 8, 16, 64))
    assert not any(prefers_exact(q, 2240, 47, 19) for q in (128, 256))


def test_scorer_counter_sums_to_batches_served(snapshot):
    with use_registry() as registry:
        index = IVFIndex(snapshot.item_embeddings, n_cells=N_CELLS, n_probe=N_PROBE, seed=0)
        service = RecommendationService(snapshot, index=index, default_k=10, cache_size=0)
        for size in (1, SMALL, LARGE, SMALL, LARGE, 2):
            service.recommend_many(list(range(size)), k=10)
        exact = registry.value("serve.retrieval.searches.total", {"scorer": "exact"})
        ivf = registry.value("serve.retrieval.searches.total", {"scorer": "ivf"})
    assert (exact, ivf) == (4, 2)
    assert exact + ivf == service.stats.batches


def test_exact_index_batches_count_as_exact(snapshot):
    with use_registry() as registry:
        service = RecommendationService(snapshot, default_k=10, cache_size=0)
        for size in (1, LARGE, SMALL):
            service.recommend_many(list(range(size)), k=10)
        exact = registry.value("serve.retrieval.searches.total", {"scorer": "exact"})
        ivf = registry.value("serve.retrieval.searches.total", {"scorer": "ivf"})
    assert (exact, ivf) == (3, 0)
