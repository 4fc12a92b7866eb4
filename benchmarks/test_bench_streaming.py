"""Streaming benchmarks: fold-in throughput and recall vs. a full retrain.

Two questions, two scales:

* **Quality** — replay every held-out user's interactions through the
  streaming updater and compare their recall@20 against the same backbone
  retrained on the complete interaction set (``"trained"`` mode of
  :func:`repro.stream.simulate_stream`).  Finding encoded as an assertion:
  incremental fold-in keeps **at least 0.8x** of the full retrain's recall —
  in practice it *matches or beats* a small retrain for brand-new users,
  because the closed-form solve against the already-trained item table is
  exactly fitted to the user's history while the retrain must re-learn
  everything from scratch.
* **Throughput** — the ``"factors"`` mode skips training (the model-free
  ground-truth-factor corpus of the serving bench) so the timer isolates the
  updater itself: event-log drain, per-user ridge solves, CSR/popularity
  patching and the snapshot hot swap.  Fold-in is a per-user ``(d, d)`` solve,
  so throughput is thousands of events per second at serving dimensionality —
  continuous refresh costs a rounding error next to retraining.
"""

from __future__ import annotations

import pytest

from repro.stream import StreamSimulationConfig, simulate_stream

from .conftest import run_once

RECALL_RATIO_FLOOR = 0.8
TOP_K = 20
#: Deliberately loose absolute floor (measured: tens of thousands/sec) so the
#: assertion survives arbitrarily noisy CI machines while still catching an
#: accidental re-train-per-event regression.
EVENTS_PER_SEC_FLOOR = 200.0


def quality_config(seed: int = 0) -> StreamSimulationConfig:
    # scale 0.6 / 4 epochs is the smallest configuration where the ratio is
    # stable across seeds: below it the retrain reference itself is too noisy
    # (tens of users, 2-epoch BPR-MF) for a meaningful comparison.
    return StreamSimulationConfig(
        dataset="amazon-book",
        scale=0.6,
        epochs=4,
        chunk_size=128,
        k=TOP_K,
        seed=seed,
    )


def throughput_config(scale: float = 2.0) -> StreamSimulationConfig:
    return StreamSimulationConfig(
        dataset="amazon-book",
        scale=scale,
        mode="factors",
        chunk_size=256,
        k=TOP_K,
    )


def test_foldin_recall_vs_full_retrain():
    """Folded-in users reach >= 0.8x the recall@20 of a full retrain."""
    result = simulate_stream(quality_config())
    print(
        f"\nfold-in recall@{TOP_K}={result.foldin_recall:.4f} "
        f"retrain recall@{TOP_K}={result.retrain_recall:.4f} "
        f"ratio={result.recall_ratio:.3f} "
        f"({result.users_folded_in} users, {result.snapshot_generations} delta generations)"
    )
    assert result.retrain_recall > 0, "degenerate retrain reference"
    assert result.recall_ratio >= RECALL_RATIO_FLOOR, (
        f"fold-in recall ratio {result.recall_ratio:.3f} fell below "
        f"{RECALL_RATIO_FLOOR} of the full-retrain reference"
    )


def test_foldin_recall_stable_across_seeds():
    """The quality finding is not a single lucky seed."""
    ratios = [simulate_stream(quality_config(seed=seed)).recall_ratio for seed in (1, 2)]
    print(f"\nrecall ratios across seeds: {[round(r, 3) for r in ratios]}")
    assert min(ratios) >= RECALL_RATIO_FLOOR


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_foldin_throughput(scale):
    """The updater sustains thousands of folded events per second."""
    result = simulate_stream(throughput_config(scale))
    print(
        f"\nscale={scale}: {result.events_replayed} events in "
        f"{result.apply_seconds:.4f}s -> {result.events_per_second:,.0f} events/sec "
        f"({result.users_folded_in} users folded, "
        f"{result.snapshot_generations} snapshot swaps)"
    )
    assert result.events_per_second >= EVENTS_PER_SEC_FLOOR


def test_bench_stream_apply(benchmark):
    """pytest-benchmark timing of one full replay at serving scale."""
    run_once(benchmark, lambda: simulate_stream(throughput_config(2.0)))
