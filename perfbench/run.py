"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: the layer ledger records setup and every other
round, the rounds in between run untraced to measure the ledger's overhead,
and the spans are written to ``.perfbench/``.  Metric names and units come
from ``BENCHMARK.json``.

Lines before the last one are a readable report: environment, every figure
the run measured with its unit (those the other section lists are marked),
operations attempted/succeeded/failed per phase, and each correctness check.
The last line is the JSON result.  A failed check exits with status 1 after
printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

#: BLAS threads per process.  One thread per process keeps the traffic loop and
#: BLAS from competing for the same cores, and stays at or below nproc.
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

COVERAGE_FLOOR = 0.9


def _program_available() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("serve-zipf", "ingest-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_metrics(ledger, result) -> dict[str, tuple[float, str]]:
    """Ledger metrics of a traced run, from the spans and service counters."""
    import statistics

    import numpy as np

    from ledger import LAYER_NAMES

    busy = result.info["traced_busy_s"]
    totals = ledger.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    covered = 0.0
    for name in LAYER_NAMES:
        calls, self_s = totals[name]
        covered += self_s
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1000.0, "ms")
        metrics[f"{name}.share"] = (self_s / busy, "ratio")

    services = result.info["services"]
    counts = result.info["counts"]
    hits = sum(service.cache.hits for service in services)
    lookups = hits + sum(service.cache.misses for service in services)
    batches = sum(service.stats.batches for service in services)
    queries = sum(service.stats.queries for service in services)
    metrics["serve.service.cache.hit_ratio"] = (hits / max(lookups, 1), "ratio")
    metrics["serve.service.batch_users"] = (
        sum(service.stats.batched_queries for service in services) / max(batches, 1), "users")
    metrics["serve.service.fallback_frac"] = (
        sum(service.stats.fallbacks for service in services) / max(queries, 1), "ratio")
    metrics["serve.queue_wait_p50_ms"] = (float(np.percentile(counts["queue_wait"], 50)) * 1000.0, "ms")
    searches = totals["serve.index.search"][0]
    metrics["serve.index.queries_per_search"] = (ledger.work["serve.index.search"] / max(searches, 1), "queries")
    metrics["stream.events.wal_bytes_per_event"] = (counts["wal_bytes"] / max(counts["events"], 1), "bytes")
    metrics["stream.updater.events_per_apply"] = (counts["applied_events"] / max(counts["applies"], 1), "events")
    metrics["stream.updater.users_per_apply"] = (counts["folded_users"] / max(counts["applies"], 1), "users")
    metrics["nn.compile.fallbacks"] = (counts["fallbacks"], "count")
    metrics["trace.coverage"] = (covered / busy, "ratio")
    # The serving closed loop makes the most wrapped calls per second, so its
    # slowdown bounds the ledger's overhead on every path.
    overhead = statistics.median(counts["untraced_rates"]) / statistics.median(counts["traced_rates"])
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _program_available():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    import numpy as np

    import lifecycle
    from ledger import Ledger, target_of

    env = {
        "workload": args.workload,
        "why": lifecycle.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }
    print("env " + json.dumps(env))

    if args.trace:
        ledger = Ledger()
        ledger.install()
        try:
            result = lifecycle.run(args.workload, args.seed, args.seconds, ROOT, ledger=ledger)
        finally:
            ledger.uninstall()
        metrics = layer_metrics(ledger, result)
        metrics.update((name, (value, units[name])) for name, value in result.metrics.items())
        path = ledger.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        print(f"spans {len(ledger.spans)} written to {path.relative_to(ROOT)}")
        coverage = metrics["trace.coverage"][0]
        result.check("trace.coverage", coverage >= COVERAGE_FLOOR, f"{coverage:.3f} >= {COVERAGE_FLOOR}")
    else:
        result = lifecycle.run(args.workload, args.seed, args.seconds, ROOT)
        metrics = {name: (value, units[name]) for name, value in result.metrics.items()}

    section = spec["per_layer" if args.trace else "end_to_end"]
    expected = [metric["name"] for metric in section]
    for name, (value, unit) in metrics.items():
        target = target_of(name)
        note = f"  (moves {target})" if target else ""
        if name not in expected:
            note = "  (not in this section's result)"
        print(f"metric {name} = {value:.6g} {unit}{note}")
    for phase in result.phases.values():
        print(f"phase {phase.name}: attempted {phase.attempted} succeeded {phase.succeeded} failed {phase.failed}")
        for error in phase.errors:
            print(error, file=sys.stderr)
    for name, passed, detail in result.checks:
        print(f"check {name}: {'pass' if passed else 'FAIL'} ({detail})")
    shown = ("plan", "speed", "serve", "ingest", "train", "busy_s")
    info = {key: value for key, value in result.info.items() if key in shown}
    print("info " + json.dumps(info, default=float))

    missing = [name for name in expected if name not in metrics]
    correct = not missing and all(passed for _, passed, _ in result.checks)
    if missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
    line = {
        "correct": correct,
        "attempted": sum(phase.attempted for phase in result.phases.values()),
        "failed": sum(phase.failed for phase in result.phases.values()),
        "metrics": {name: {"value": float(metrics[name][0]), "unit": metrics[name][1]}
                    for name in expected if name in metrics},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
