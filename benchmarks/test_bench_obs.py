"""Bench — observability: serving overhead ceiling and per-op profile coverage.

Two acceptance checks from the observability PR:

* **Overhead** — serving the same query load through a
  :class:`~repro.serve.service.RecommendationService` with metrics *and*
  tracing enabled must stay within 5% of the q/s of an identical service with
  observability disabled (the default).  The arms alternate batch by batch
  inside each timed rep (median per-rep ratio of summed batch times, see
  :func:`paired_overhead`) with the cache off, so every request pays for
  real retrieval and the comparison measures instrumentation — not cache
  luck, and not machine-speed drift between two timing phases.
* **Coverage** — profiling a compiled LightGCN + DaRec epoch must produce a
  per-op timing breakdown whose summed op time explains at least 80% of the
  measured epoch wall time; a profile that misses a fifth of the epoch is not
  a profile you can optimise from.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus and loosens the overhead ceiling
(CI machines are noisy); the full run holds the 5% target.  Measurements are
appended to ``BENCH_obs_overhead.json`` via :mod:`benchmarks.record`.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from pathlib import Path

from repro.align.base import AlignedRecommender
from repro.experiments import build_dataset_and_semantics, build_variant, make_backbone
from repro.obs.metrics import use_registry
from repro.obs.tracing import Tracer, use_tracer
from repro.serve import RecommendationService
from repro.train import Trainer, TrainingConfig

from .conftest import BENCH_SCALE
from .record import record
from .test_bench_serving import NUM_QUERIES, TOP_K, serving_corpus

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in {"0", "", "false", "False"}

OBS_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"

#: dataset-scale of the overhead comparison; bigger corpus -> per-query work
#: dominates and the instrumentation cost is measured, not the noise floor.
OVERHEAD_SCALE = 2.0 if SMOKE else 8.0
#: Users per ``recommend_many`` call — one span + one histogram sample each.
BATCH_SIZE = 256
#: CI smoke only guards against gross regressions; the full run holds <5%.
OVERHEAD_CEILING = 1.15 if SMOKE else 1.05
#: Serving passes per timed rep (both arms, batch by batch).  Three passes
#: put a rep at ~0.3 s per arm on a 2-CPU box, so one scheduler burst is a
#: small share of either arm's sum.
REP_PASSES = 3
#: Timed reps per comparison.  Single reps of the health-engine comparison
#: spread 0.93–1.11 around ~1.03 on a 2-CPU box; the median of 7 still
#: crossed the 1.05 ceiling in about one run in twelve, the median of 15
#: narrows that spread by ~1.5×.
REPETITIONS = 15
#: Fraction of epoch wall time the per-op profile must account for.
COVERAGE_FLOOR = 0.8


def _serve_all(service: RecommendationService, user_ids: list[int]) -> None:
    for start in range(0, len(user_ids), BATCH_SIZE):
        service.recommend_many(user_ids[start : start + BATCH_SIZE], k=TOP_K)


def _batches(user_ids: list[int]) -> list[list[int]]:
    return [user_ids[s : s + BATCH_SIZE] for s in range(0, len(user_ids), BATCH_SIZE)]


def _timed(fn, *args) -> float:
    """Time ``fn(*args)`` plus a young-generation collection.

    The collection frees the garbage ``fn`` left behind on ``fn``'s own
    clock.  Without it, an arm's leftover cyclic garbage is collected when
    the *next* arm's allocations cross the gen-0 threshold, so with arms
    alternating batch by batch a tick that allocates would be billed partly
    to the baseline.
    """
    start = time.perf_counter()
    fn(*args)
    gc.collect(0)
    return time.perf_counter() - start


def paired_overhead(
    baseline_batch, enabled_batch, batches, repetitions: int = REPETITIONS
):
    """Median per-rep enabled/disabled time ratio, arms interleaved per batch.

    Timing all baseline reps and then all enabled reps lets any machine-speed
    shift between the two phases (CPU frequency, a background burst on a
    single-core CI box) masquerade as instrumentation overhead — one lucky
    baseline rep once inflated the recorded ratio to 1.40 on a run where
    every honest rep sat near 1.0.  Alternating whole reps still lets a burst
    that outlasts one ~0.3 s rep land on one arm only: on a 2-CPU box with a
    busy neighbour process the median of 7 such rep ratios spread from 0.88
    to 1.14 between runs of the same tree.

    So each rep serves the query load ``REP_PASSES`` times, and every batch
    is served by the baseline arm and then by the enabled arm, each timed on
    its own; the rep's ratio is the enabled arm's summed batch time over the
    baseline arm's.  Both arms sample the same stretches of machine time,
    and a sum (not a per-batch median) still charges a cost that only some
    batches pay, such as a periodic expensive tick, in full.  Each batch's
    time includes collecting its own young garbage (:func:`_timed`), so a
    deferred collection cost does not cross arms.  The median over reps
    discards reps a burst hit.

    Returns ``(median_ratio, best_disabled_time, best_enabled_time)``; the
    best-of per-rep sums are kept for the q/s context rows.
    """
    ratios, disabled_best, enabled_best = [], float("inf"), float("inf")
    for _ in range(repetitions):
        disabled_time = enabled_time = 0.0
        for _ in range(REP_PASSES):
            for batch in batches:
                disabled_time += _timed(baseline_batch, batch)
                enabled_time += _timed(enabled_batch, batch)
        ratios.append(enabled_time / disabled_time)
        disabled_best = min(disabled_best, disabled_time)
        enabled_best = min(enabled_best, enabled_time)
    return statistics.median(ratios), disabled_best, enabled_best


def test_enabled_observability_overhead_under_ceiling():
    """Metrics + tracing cost < 5% of serving throughput (full run)."""
    snapshot, _ = serving_corpus(OVERHEAD_SCALE)
    user_ids = [i % snapshot.num_users for i in range(NUM_QUERIES)]

    # Baseline arm: observability left at its default (disabled) state.  The
    # cache is off in both arms so every query performs real retrieval.
    baseline = RecommendationService(snapshot, default_k=TOP_K, cache_size=0)
    _serve_all(baseline, user_ids)  # warm-up outside the timer

    # Instrumented arm: handles bind at construction, so the service is built
    # *inside* the scopes — the discipline real deployments follow.  The
    # scopes are re-entered around each timed batch (their entry is charged
    # to the enabled arm) so the baseline arm runs with observability
    # genuinely disabled in between.
    with use_registry() as registry, use_tracer(Tracer()) as tracer:
        instrumented = RecommendationService(snapshot, default_k=TOP_K, cache_size=0)
        _serve_all(instrumented, user_ids)  # warm-up

    def baseline_batch(batch: list[int]) -> None:
        baseline.recommend_many(batch, k=TOP_K)

    def enabled_batch(batch: list[int]) -> None:
        with use_registry(registry), use_tracer(tracer):
            instrumented.recommend_many(batch, k=TOP_K)

    ratio, disabled_time, enabled_time = paired_overhead(
        baseline_batch, enabled_batch, _batches(user_ids)
    )
    # The instrumentation actually ran: every query was counted and every
    # batch produced at least a serving span.
    assert registry.value("serve.queries.total") >= NUM_QUERIES
    assert len(tracer) + tracer.dropped_spans >= NUM_QUERIES // BATCH_SIZE

    disabled_qps = REP_PASSES * NUM_QUERIES / disabled_time
    enabled_qps = REP_PASSES * NUM_QUERIES / enabled_time
    print(
        f"\nobs overhead at scale {OVERHEAD_SCALE} ({snapshot.num_items} items, "
        f"{NUM_QUERIES} queries): disabled={disabled_qps:,.0f} q/s  "
        f"enabled={enabled_qps:,.0f} q/s  (ratio {ratio:.4f}, "
        f"ceiling {OVERHEAD_CEILING})"
    )
    metric = "serving_overhead_ratio_smoke" if SMOKE else "serving_overhead_ratio"
    # bound= journals a ceiling breach as an annotated regression_warning row
    # (excluded from future medians) instead of a clean baseline-polluting
    # measurement — record precedes the assert, so this run fails loudly in
    # the committed history too.  guard_tolerance flags within-ceiling drift.
    record(metric, ratio, path=OBS_HISTORY, guard_tolerance=0.15, bound=OVERHEAD_CEILING)
    record(f"{metric}_disabled_qps", disabled_qps, path=OBS_HISTORY, context=True)
    record(f"{metric}_enabled_qps", enabled_qps, path=OBS_HISTORY, context=True)
    assert ratio <= OVERHEAD_CEILING, (
        f"metrics+tracing cost {100 * (ratio - 1):.1f}% of serving throughput "
        f"({enabled_qps:,.0f} vs {disabled_qps:,.0f} q/s); "
        f"ceiling is {100 * (OVERHEAD_CEILING - 1):.0f}%"
    )


def test_health_engine_overhead_under_ceiling():
    """Sampler + SLO evaluator + alerting cost < 5% of serving throughput.

    The engine is ticked once per served batch — far more often than the
    default 1 s background cadence — so the measured ratio is a *ceiling* on
    what a deployment pays, not an average diluted by idle time.
    """
    from repro.obs import HealthEngine

    snapshot, _ = serving_corpus(OVERHEAD_SCALE)
    user_ids = [i % snapshot.num_users for i in range(NUM_QUERIES)]

    baseline = RecommendationService(snapshot, default_k=TOP_K, cache_size=0)
    _serve_all(baseline, user_ids)  # warm-up

    with use_registry() as registry:
        service = RecommendationService(snapshot, default_k=TOP_K, cache_size=0)
        engine = HealthEngine(registry=registry)

    def baseline_batch(batch: list[int]) -> None:
        baseline.recommend_many(batch, k=TOP_K)

    def enabled_batch(batch: list[int]) -> None:
        with use_registry(registry):
            service.recommend_many(batch, k=TOP_K)
            engine.tick()

    batches = _batches(user_ids)
    for batch in batches:  # warm-up
        enabled_batch(batch)

    ratio, disabled_time, enabled_time = paired_overhead(
        baseline_batch, enabled_batch, batches
    )
    # The engine actually worked: every tick sampled and evaluated.
    assert engine.tsdb.samples_taken >= NUM_QUERIES // BATCH_SIZE
    assert engine.last_statuses  # default serving SLOs were evaluated

    print(
        f"\nhealth-engine overhead at scale {OVERHEAD_SCALE}: "
        f"disabled={REP_PASSES * NUM_QUERIES / disabled_time:,.0f} q/s  "
        f"enabled={REP_PASSES * NUM_QUERIES / enabled_time:,.0f} q/s  "
        f"(ratio {ratio:.4f}, ceiling {OVERHEAD_CEILING}, "
        f"{engine.tsdb.samples_taken} samples)"
    )
    metric = "health_overhead_ratio_smoke" if SMOKE else "health_overhead_ratio"
    record(
        metric, ratio, path=OBS_HISTORY, guard_tolerance=0.15, bound=OVERHEAD_CEILING
    )
    assert ratio <= OVERHEAD_CEILING, (
        f"health engine cost {100 * (ratio - 1):.1f}% of serving throughput; "
        f"ceiling is {100 * (OVERHEAD_CEILING - 1):.0f}%"
    )


def test_per_op_profile_covers_epoch_wall_time():
    """Summed per-op time explains >= 80% of a compiled DaRec epoch."""
    scale = BENCH_SCALE if SMOKE else BENCH_SCALE.smaller(dataset_scale=0.5, embedding_dim=32)
    dataset, semantic = build_dataset_and_semantics("yelp", scale)
    backbone = make_backbone("lightgcn", dataset, scale)
    alignment = build_variant("darec", backbone, semantic, scale)
    model = AlignedRecommender(backbone, alignment, trade_off=0.1)
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=1, batch_size=scale.batch_size, compile=True, seed=scale.seed
        ),
    )
    assert trainer.compiled_step is not None

    profiler = trainer.enable_profiling()
    trainer.train_epoch()  # warm-up: pays the one-off trace cost
    profiler.reset()

    start = time.perf_counter()
    trainer.train_epoch()
    epoch_wall = time.perf_counter() - start

    coverage = profiler.total_seconds / epoch_wall
    report = profiler.report(top_k=5)
    print(f"\n{report.render()}")
    print(f"epoch wall {epoch_wall:.4f}s, profiled {profiler.total_seconds:.4f}s "
          f"({100 * coverage:.1f}% coverage, floor {100 * COVERAGE_FLOOR:.0f}%)")

    # The breakdown names the interesting sections, not one opaque bucket.
    assert report.rows
    assert any(key.endswith(".fwd") for key in profiler.seconds)
    assert any(key.endswith(".bwd") for key in profiler.seconds)
    assert "optimizer.step" in profiler.seconds

    metric = "profile_epoch_coverage_smoke" if SMOKE else "profile_epoch_coverage"
    record(metric, coverage, path=OBS_HISTORY, bound=COVERAGE_FLOOR)
    assert coverage >= COVERAGE_FLOOR, (
        f"per-op profile explains only {100 * coverage:.1f}% of the "
        f"{epoch_wall:.3f}s epoch; floor is {100 * COVERAGE_FLOOR:.0f}%"
    )
