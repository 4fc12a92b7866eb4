"""Serving benchmarks: exact vs. IVF retrieval throughput and recall parity.

The serving corpus is built from the synthetic benchmark's ground-truth latent
factors (``dataset.metadata``): they carry exactly the clustered structure a
trained backbone converges towards, are deterministic, and let the bench scale
the catalogue without paying for training.  Retrieval performance depends only
on the embedding geometry, not on how the embeddings were obtained.

Findings encoded as assertions:

* the IVF index in its default (self-tuning) configuration keeps recall@20
  against exact scoring at or above 0.95 at every dataset scale;
* at serving scale (``dataset-scale`` 8.0, ~2.2k items) IVF answers strictly
  more queries per second than exact blockwise scoring on a full-size batch.

Whether IVF wins depends on the batch as well as the catalogue: each cell a
search touches costs a fixed step, so exact scoring wins on tiny catalogues
(0.5: ~140 items) and on the few queries a service batch holds, even at
serving scale.  The report-only crossover table sweeps both axes and prints
the scorer :class:`repro.serve.Retriever` picks for each cell; with
``REPRO_BENCH_RECORD=1`` it appends the routed-vs-IVF speedup at 8 queries
per search to ``BENCH_serving.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data import load_benchmark
from repro.serve import ExactIndex, IVFIndex, build_snapshot
from repro.serve.retrieval import exact_topk, prefers_exact

from .conftest import run_once
from .record import REPO_ROOT, record

RECALL_TARGET = 0.95
TOP_K = 20
NUM_QUERIES = 2048
#: dataset-scale of the headline throughput comparison (acceptance: >= 0.5).
SERVING_SCALE = 8.0
#: Queries per search swept by the crossover table, and the one recorded.
BATCH_SIZES = (1, 4, 8, 16, 64, 256)
RECORDED_BATCH = 8
SERVING_HISTORY = REPO_ROOT / "BENCH_serving.json"
_corpus_cache: dict[float, tuple] = {}


def serving_corpus(scale: float):
    """(snapshot, query matrix) for one dataset scale, cached per session."""
    if scale not in _corpus_cache:
        dataset = load_benchmark("amazon-book", scale=scale)
        snapshot = build_snapshot(
            dataset.metadata["user_factors"],
            dataset.metadata["item_factors"],
            train_pairs=dataset.train,
            model_name="ground-truth-factors",
            dataset_name=dataset.name,
        )
        reps = -(-NUM_QUERIES // snapshot.num_users)
        queries = np.tile(snapshot.user_embeddings, (reps, 1))[:NUM_QUERIES]
        _corpus_cache[scale] = (snapshot, queries)
    return _corpus_cache[scale]


def best_of(fn, repetitions: int = 7) -> float:
    """Minimum wall time over ``repetitions`` runs (noise-robust timing)."""
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("scale", [0.5, 2.0, SERVING_SCALE])
def test_ivf_recall_parity(scale):
    """Default (self-tuned) IVF keeps >= 0.95 recall@20 vs. exact scoring."""
    snapshot, _ = serving_corpus(scale)
    index = IVFIndex(snapshot.item_embeddings, seed=0)
    users = snapshot.user_embeddings
    index.search(users, TOP_K)  # first search triggers the self-tuning default
    recall = index.measure_recall(users, TOP_K)
    print(
        f"\nscale={scale}: items={snapshot.num_items} cells={index.n_cells} "
        f"n_probe={index.n_probe} recall@{TOP_K}={recall:.3f}"
    )
    assert recall >= RECALL_TARGET


def test_ivf_beats_exact_throughput_at_serving_scale():
    """IVF serves more queries/sec than exact blockwise scoring at scale 8."""
    snapshot, queries = serving_corpus(SERVING_SCALE)
    exact = ExactIndex(snapshot.item_embeddings)
    ivf = IVFIndex(snapshot.item_embeddings, seed=0)
    ivf.search(queries[:256], TOP_K)  # warm up + self-tune outside the timer

    exact_time = best_of(lambda: exact.search(queries, TOP_K))
    ivf_time = best_of(lambda: ivf.search(queries, TOP_K))
    exact_qps = NUM_QUERIES / exact_time
    ivf_qps = NUM_QUERIES / ivf_time
    print(
        f"\nserving scale {SERVING_SCALE} ({snapshot.num_items} items, "
        f"{NUM_QUERIES} queries, k={TOP_K}): "
        f"exact={exact_qps:,.0f} q/s  ivf={ivf_qps:,.0f} q/s "
        f"(speedup {exact_time / ivf_time:.2f}x, n_probe={ivf.n_probe}/{ivf.n_cells})"
    )
    assert ivf_qps > exact_qps, (
        f"IVF ({ivf_qps:,.0f} q/s) should beat exact ({exact_qps:,.0f} q/s) "
        f"on a {snapshot.num_items}-item catalogue"
    )


def test_throughput_crossover_table(capsys):
    """Report-only: exact vs. IVF search time over catalogue size and batch size.

    Each cell times both scorers on one batch and names the one the router
    picks; the routed time is that scorer's.
    """
    rows = []
    for scale in (0.5, 2.0, SERVING_SCALE):
        snapshot, queries = serving_corpus(scale)
        items = snapshot.item_embeddings
        ivf = IVFIndex(items, seed=0)
        ivf.search(queries[:256], TOP_K)  # self-tune outside the timer
        for size in BATCH_SIZES:
            batch = queries[:size]
            repetitions = 7 if size <= 16 else 3
            exact_ms = 1e3 * best_of(lambda: exact_topk(batch, items, TOP_K), repetitions)
            ivf_ms = 1e3 * best_of(lambda: ivf.search(batch, TOP_K), repetitions)
            exact = prefers_exact(size, snapshot.num_items, ivf.n_cells, ivf.n_probe)
            rows.append((scale, snapshot.num_items, size, exact_ms, ivf_ms, "exact" if exact else "ivf"))
    with capsys.disabled():
        print("\nscale  items  queries  exact ms    ivf ms  routed")
        for scale, items, size, exact_ms, ivf_ms, choice in rows:
            print(f"{scale:5.1f}  {items:5d}  {size:7d}  {exact_ms:8.3f}  {ivf_ms:8.3f}  {choice}")

    *_, exact_ms, ivf_ms, choice = next(
        row for row in rows if row[0] == SERVING_SCALE and row[2] == RECORDED_BATCH
    )
    routed_ms = exact_ms if choice == "exact" else ivf_ms
    metric = f"routed_vs_ivf_speedup_q{RECORDED_BATCH}"
    record(metric, ivf_ms / routed_ms, path=SERVING_HISTORY)
    record(f"{metric}_ivf_ms", ivf_ms, path=SERVING_HISTORY, context=True)
    record(f"{metric}_routed_ms", routed_ms, path=SERVING_HISTORY, context=True)


def test_bench_exact_search(benchmark):
    snapshot, queries = serving_corpus(2.0)
    exact = ExactIndex(snapshot.item_embeddings)
    run_once(benchmark, lambda: exact.search(queries, TOP_K))


def test_bench_ivf_search(benchmark):
    snapshot, queries = serving_corpus(2.0)
    ivf = IVFIndex(snapshot.item_embeddings, seed=0)
    ivf.search(queries[:256], TOP_K)
    run_once(benchmark, lambda: ivf.search(queries, TOP_K))
