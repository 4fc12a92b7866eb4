"""Command-line interface around the experiment registry and the serving layer.

Usage::

    python -m repro list
    python -m repro run table4 --epochs 4 --dataset-scale 0.3
    python -m repro datasets --scale 0.3
    python -m repro export-snapshot --output model.npz --backbone lightgcn --variant darec
    python -m repro recommend --snapshot model.npz --user 3 --user 17 -k 10 --index ivf
    python -m repro recommend -s model.npz -u 3 --metrics-dump metrics.jsonl --trace-dump spans.jsonl
    python -m repro metrics-dump --input metrics.jsonl --format prometheus
    python -m repro trace --input spans.jsonl
    python -m repro stream-simulate --events 2000 --smoke
    python -m repro fold-in --snapshot model.npz --user 9999 --item 3 --item 17 --item 42
    python -m repro retrain-loop --directory /tmp/lifecycle --smoke
    python -m repro ops-demo --directory /tmp/ops --brownout --smoke
    python -m repro doctor --directory /tmp/ops --bench .
    python -m repro alerts --directory /tmp/ops
    python -m repro dashboard --directory /tmp/ops
"""

from __future__ import annotations

import argparse
from typing import Sequence

from . import __version__
from .data.synthetic import BENCHMARKS, load_benchmark
from .experiments import EXPERIMENTS, ExperimentScale, get_experiment
from .experiments.reporting import print_table

__all__ = ["build_parser", "main"]


def _version_string() -> str:
    """``repro <version>``, plus the active snapshot id when the working
    directory holds published snapshot manifests (serving-box context)."""
    from .serve.snapshot import active_snapshot_id

    version = f"repro {__version__}"
    snapshot_id = active_snapshot_id(".")
    if snapshot_id is not None:
        version += f" (snapshot {snapshot_id})"
    return version


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset-scale", type=float, default=0.25, help="synthetic dataset size multiplier")
    parser.add_argument("--epochs", type=int, default=2, help="training epochs per model")
    parser.add_argument("--embedding-dim", type=int, default=32, help="backbone embedding width")
    parser.add_argument("--llm-dim", type=int, default=64, help="simulated LLM embedding width")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DaRec reproduction — regenerate the paper's tables and figures, "
        "export serving snapshots and answer top-K queries.",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the reproducible paper artefacts")

    run = subparsers.add_parser("run", help="run one experiment by identifier (e.g. table3, fig4)")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment identifier")
    _add_scale_arguments(run)

    datasets = subparsers.add_parser("datasets", help="print the synthetic benchmark statistics")
    datasets.add_argument("--scale", type=float, default=0.25, help="dataset size multiplier")

    export = subparsers.add_parser(
        "export-snapshot",
        help="train a (backbone, alignment) pair and export its embedding snapshot",
    )
    export.add_argument("--output", "-o", required=True, help="destination .npz path")
    export.add_argument(
        "--dataset", default="amazon-book", choices=sorted(BENCHMARKS), help="synthetic benchmark"
    )
    export.add_argument("--backbone", default="lightgcn", help="backbone identifier (e.g. lightgcn, mf)")
    export.add_argument(
        "--variant",
        default="darec",
        help="alignment variant: baseline, rlmrec-con, rlmrec-gen, kar or darec",
    )
    _add_scale_arguments(export)

    recommend = subparsers.add_parser(
        "recommend",
        help="serve top-K recommendations from a snapshot (no model code involved)",
    )
    recommend.add_argument("--snapshot", "-s", required=True, help="path to an exported .npz snapshot")
    recommend.add_argument(
        "--user",
        "-u",
        type=int,
        action="append",
        required=True,
        help="user id to serve (repeat for several users)",
    )
    recommend.add_argument("-k", "--top-k", type=int, default=10, help="list length")
    recommend.add_argument(
        "--index",
        choices=("exact", "ivf"),
        default="exact",
        help="retrieval strategy: exact blockwise scoring, or an IVF approximate index "
        "(once its probe count is set, batches too small for IVF to pay off are scored exactly)",
    )
    recommend.add_argument(
        "--n-probe", type=int, default=None, help="IVF cells probed per query (default: self-tuned)"
    )
    recommend.add_argument(
        "--include-seen",
        action="store_true",
        help="do not mask the user's training items out of the results",
    )
    recommend.add_argument(
        "--metrics-dump",
        default=None,
        metavar="PATH",
        help="enable metrics and write a JSONL dump of every series after serving",
    )
    recommend.add_argument(
        "--trace-dump",
        default=None,
        metavar="PATH",
        help="enable span tracing and write a JSONL span export after serving",
    )

    metrics_dump = subparsers.add_parser(
        "metrics-dump",
        help="render a JSONL metrics dump (from `recommend --metrics-dump` or a "
        "PeriodicExporter) as a table, Prometheus text or JSON",
    )
    metrics_dump.add_argument("--input", "-i", required=True, help="JSONL metrics dump path")
    metrics_dump.add_argument(
        "--format",
        choices=("table", "prometheus", "json"),
        default="table",
        help="output rendering",
    )

    trace = subparsers.add_parser(
        "trace",
        help="render a span JSONL export (from `recommend --trace-dump`) as a text flamegraph",
    )
    trace.add_argument("--input", "-i", required=True, help="span JSONL export path")
    trace.add_argument("--width", type=int, default=40, help="flamegraph bar width (characters)")

    simulate = subparsers.add_parser(
        "stream-simulate",
        help="replay synthetic interaction events through the streaming updater "
        "and report fold-in recall vs. a full retrain",
    )
    simulate.add_argument(
        "--dataset", default="amazon-book", choices=sorted(BENCHMARKS), help="synthetic benchmark"
    )
    simulate.add_argument("--scale", type=float, default=0.5, help="dataset size multiplier")
    simulate.add_argument(
        "--events", type=int, default=None, help="cap on the number of replayed events"
    )
    simulate.add_argument(
        "--holdout",
        type=float,
        default=0.25,
        help="fraction of users held out of the base snapshot and replayed as a stream",
    )
    simulate.add_argument(
        "--chunk-size", type=int, default=256, help="events per updater micro-batch cycle"
    )
    simulate.add_argument("-k", "--top-k", type=int, default=20, help="recall cut-off")
    simulate.add_argument("--l2", type=float, default=0.1, help="fold-in ridge regularisation")
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI configuration (tiny scale, small chunks) with sanity assertions",
    )

    retrain_loop = subparsers.add_parser(
        "retrain-loop",
        help="run the fault-tolerant lifecycle once: durable WAL ingest, drift "
        "detection, blue/green retrain with gated promotion and auto-rollback",
    )
    retrain_loop.add_argument(
        "--directory", "-d", required=True, help="run directory (WAL, journal, snapshots)"
    )
    retrain_loop.add_argument(
        "--dataset", default="amazon-book", choices=sorted(BENCHMARKS), help="synthetic benchmark"
    )
    retrain_loop.add_argument("--scale", type=float, default=0.25, help="dataset size multiplier")
    retrain_loop.add_argument(
        "--holdout",
        type=float,
        default=0.3,
        help="fraction of users held out of the incumbent and replayed as a stream",
    )
    retrain_loop.add_argument("-k", "--top-k", type=int, default=20, help="recall cut-off")
    retrain_loop.add_argument("--epochs", type=int, default=3, help="retrain epochs")
    retrain_loop.add_argument(
        "--embedding-dim", type=int, default=32, help="backbone embedding width"
    )
    retrain_loop.add_argument(
        "--chunk-size", type=int, default=256, help="events per micro-batch / orchestrator tick"
    )
    retrain_loop.add_argument(
        "--events", type=int, default=None, help="cap on the number of streamed events"
    )
    retrain_loop.add_argument(
        "--min-recall-ratio",
        type=float,
        default=0.9,
        help="promotion gate: candidate recall must reach this fraction of the incumbent's",
    )
    retrain_loop.add_argument(
        "--worker",
        action="store_true",
        help="run the retrain in a disposable worker process",
    )
    retrain_loop.add_argument("--seed", type=int, default=0, help="random seed")
    retrain_loop.add_argument(
        "--canary-fraction",
        type=float,
        default=0.0,
        help="cohort fraction for the canary stage between evaluate and promote "
        "(0 disables; e.g. 0.1 shadows 10%% of users to the candidate)",
    )
    retrain_loop.add_argument(
        "--canary-mode",
        choices=("shadow", "canary"),
        default="shadow",
        help="shadow = mirror cohort queries to the candidate off-path; "
        "canary = actually serve the candidate to the cohort",
    )
    retrain_loop.add_argument(
        "--schedule",
        default=None,
        help="cron-style scheduled retrains alongside drift-triggered ones "
        "('m h dom mon dow', '@hourly', or '@every 30m')",
    )
    retrain_loop.add_argument(
        "--max-cycles",
        type=int,
        default=1,
        help="stop after this many completed retrain cycles (SIGINT always "
        "drains gracefully: the in-flight stage finishes and journals first)",
    )
    retrain_loop.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI configuration (tiny scale) with lifecycle assertions",
    )

    canary_status_parser = subparsers.add_parser(
        "canary-status",
        help="show the canary rollout state recorded in a retrain-loop/"
        "orchestrator directory (journal + guardrail JSONL)",
    )
    canary_status_parser.add_argument(
        "--directory", "-d", required=True, help="orchestrator run directory"
    )

    ops_demo = subparsers.add_parser(
        "ops-demo",
        help="run a short instrumented serve loop under the health engine "
        "(optionally with a fault-injected latency brownout) and save the "
        "TSDB/alert/SLO artefacts for doctor and dashboard",
    )
    ops_demo.add_argument(
        "--directory", "-d", required=True, help="output directory for health artefacts"
    )
    ops_demo.add_argument(
        "--brownout",
        action="store_true",
        help="arm a deterministic retrieval delay (REPRO_FAULTS) to breach the latency SLO",
    )
    ops_demo.add_argument(
        "--smoke",
        action="store_true",
        help="assert the expected health outcome (brownout => latency alert fires)",
    )
    ops_demo.add_argument("--ticks", type=int, default=30, help="health-engine ticks to run")
    ops_demo.add_argument(
        "--interval", type=float, default=0.2, help="seconds between ticks (real time)"
    )
    ops_demo.add_argument(
        "--queries-per-tick", type=int, default=16, help="user queries served per tick"
    )
    ops_demo.add_argument(
        "--objective",
        type=float,
        default=0.005,
        help="latency SLO objective in seconds (p99 must stay under this)",
    )
    ops_demo.add_argument(
        "--delay",
        type=float,
        default=0.02,
        help="injected retrieval delay in seconds during a brownout",
    )
    ops_demo.add_argument(
        "--dataset-scale", type=float, default=1.0, help="synthetic corpus size multiplier"
    )

    doctor = subparsers.add_parser(
        "doctor",
        help="one-shot health verdict over saved health artefacts "
        "(exit 0 healthy / 1 degraded / 2 firing) — CI-friendly",
    )
    doctor.add_argument(
        "--directory", "-d", default=None, help="health directory written by ops-demo/HealthEngine.save"
    )
    doctor.add_argument(
        "--bench",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help="also scan BENCH_*.json histories in DIR (default: cwd) for regressions",
    )
    doctor.add_argument(
        "--bench-tolerance",
        type=float,
        default=0.15,
        help="relative drift vs trailing median that counts as a regression",
    )

    alerts_parser = subparsers.add_parser(
        "alerts",
        help="show alert states and recent transitions from a health directory's alerts.jsonl",
    )
    alerts_parser.add_argument(
        "--directory", "-d", required=True, help="health directory containing alerts.jsonl"
    )
    alerts_parser.add_argument(
        "--state",
        choices=("firing", "pending", "resolved", "inactive"),
        default=None,
        help="only show alerts currently in this state",
    )
    alerts_parser.add_argument(
        "--tail", type=int, default=10, help="recent transitions to print (0 disables)"
    )

    dashboard = subparsers.add_parser(
        "dashboard",
        help="terminal health dashboard: sparklines, SLO budget bars, firing alerts "
        "(offline from a health directory, or --demo for a live loop)",
    )
    dashboard.add_argument(
        "--directory", "-d", default=None, help="render a saved health directory"
    )
    dashboard.add_argument(
        "--demo",
        action="store_true",
        help="run a live instrumented serve loop and refresh the dashboard in place",
    )
    dashboard.add_argument("--frames", type=int, default=None, help="stop after N frames (demo)")
    dashboard.add_argument(
        "--refresh", type=float, default=1.0, help="seconds between frames (demo)"
    )
    dashboard.add_argument(
        "--dataset-scale", type=float, default=1.0, help="synthetic corpus size multiplier (demo)"
    )

    fold_in = subparsers.add_parser(
        "fold-in",
        help="fold recorded interactions for one user into a snapshot and show "
        "the recommendation change (no retraining)",
    )
    fold_in.add_argument("--snapshot", "-s", required=True, help="path to an exported .npz snapshot")
    fold_in.add_argument("--user", "-u", type=int, required=True, help="user id (may be brand new)")
    fold_in.add_argument(
        "--item",
        "-i",
        type=int,
        action="append",
        required=True,
        help="interacted item id (repeat for several items)",
    )
    fold_in.add_argument("-k", "--top-k", type=int, default=10, help="list length")
    fold_in.add_argument("--l2", type=float, default=0.1, help="ridge regularisation")
    fold_in.add_argument(
        "--output", "-o", default=None, help="optionally save the delta snapshot here (.npz)"
    )

    return parser


def _command_list() -> int:
    rows = [
        {
            "id": experiment.identifier,
            "artefact": experiment.artefact,
            "description": experiment.description,
        }
        for experiment in EXPERIMENTS.values()
    ]
    print_table(rows, columns=["id", "artefact", "description"], title="Reproducible experiments")
    return 0


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        dataset_scale=args.dataset_scale,
        epochs=args.epochs,
        embedding_dim=args.embedding_dim,
        llm_dim=args.llm_dim,
        seed=args.seed,
    )


def _command_run(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    rows = experiment.runner(scale=_scale_from_args(args))
    print_table(rows, title=f"{experiment.artefact} — {experiment.description}")
    return 0


def _command_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(BENCHMARKS):
        dataset = load_benchmark(name, scale=args.scale)
        rows.append(dataset.stats().as_row())
    print_table(rows, title="Synthetic benchmark statistics")
    return 0


def _command_export_snapshot(args: argparse.Namespace) -> int:
    from .experiments.common import run_single
    from .serve import create_snapshot, save_snapshot

    model, result = run_single(
        args.backbone, args.variant, args.dataset, scale=_scale_from_args(args)
    )
    snapshot = create_snapshot(model, extra_metadata={"test_metrics": result.metrics})
    path = save_snapshot(snapshot, args.output)
    print(
        f"wrote {path} — model={snapshot.metadata['model']} dataset={snapshot.metadata['dataset']} "
        f"users={snapshot.num_users} items={snapshot.num_items} dim={snapshot.dim} "
        f"id={snapshot.snapshot_id}"
    )
    return 0


def _command_recommend(args: argparse.Namespace) -> int:
    # Serving path: loads the snapshot and ranks with repro.serve only — the
    # training model is never instantiated.
    from .serve import IVFIndex, RecommendationService, load_snapshot

    # Observability must be switched on *before* the service is constructed:
    # components bind their metric handles once, at construction time.
    if args.metrics_dump:
        from .obs import enable

        enable()
    if args.trace_dump:
        from .obs import enable_tracing

        enable_tracing()
    snapshot = load_snapshot(args.snapshot)
    index = None
    if args.index == "ivf":
        index = IVFIndex(snapshot.item_embeddings, n_probe=args.n_probe)
    service = RecommendationService(
        snapshot,
        index=index,
        default_k=args.top_k,
        mask_train=not args.include_seen,
    )
    rows = []
    for recommendation in service.recommend_many(args.user, k=args.top_k):
        rows.append(
            {
                "user": recommendation.user_id,
                "source": recommendation.source,
                "items": " ".join(str(item) for item in recommendation.items),
                "scores": " ".join(f"{score:.3f}" for score in recommendation.scores),
            }
        )
    print_table(
        rows,
        columns=["user", "source", "items", "scores"],
        title=f"top-{args.top_k} from {snapshot.metadata['model']}@{snapshot.snapshot_id} ({args.index})",
    )
    if args.metrics_dump:
        from .obs import write_metrics_jsonl

        families = write_metrics_jsonl(args.metrics_dump)
        print(f"wrote {families} metric families to {args.metrics_dump}")
    if args.trace_dump:
        from .obs import get_tracer

        spans = get_tracer().export_jsonl(args.trace_dump)
        print(f"wrote {spans} spans to {args.trace_dump}")
    return 0


def _metric_series_rows(families: list[dict]) -> list[dict]:
    """Flatten a metrics snapshot into one printable row per series."""
    rows = []
    for family in families:
        for series in family["series"]:
            labels = series.get("labels", {})
            if family["kind"] == "histogram":
                count = series["count"]
                mean = series["sum"] / count if count else 0.0
                value = f"count={count} sum={series['sum']:.6g} mean={mean:.6g}"
            else:
                value = f"{series['value']:.6g}"
            rows.append(
                {
                    "name": family["name"],
                    "kind": family["kind"],
                    "labels": " ".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-",
                    "value": value,
                }
            )
    return rows


def _command_metrics_dump(args: argparse.Namespace) -> int:
    import json

    from .obs import read_metrics_jsonl, render_prometheus

    header, families = read_metrics_jsonl(args.input)
    if args.format == "prometheus":
        print(render_prometheus(families), end="")
    elif args.format == "json":
        print(json.dumps({"meta": header, "families": families}, indent=2))
    else:
        print_table(
            _metric_series_rows(families),
            columns=["name", "kind", "labels", "value"],
            title=f"metrics dump {args.input} (schema {header.get('schema')})",
        )
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .obs import flamegraph_from_spans

    spans = [
        json.loads(line)
        for line in Path(args.input).read_text().splitlines()
        if line.strip()
    ]
    print(flamegraph_from_spans(spans, width=args.width))
    return 0


def _command_stream_simulate(args: argparse.Namespace) -> int:
    from .stream import FoldInConfig, StreamSimulationConfig, simulate_stream

    scale = args.scale
    chunk_size = args.chunk_size
    if args.smoke:
        scale = min(scale, 0.2)
        chunk_size = min(chunk_size, 128)
    config = StreamSimulationConfig(
        dataset=args.dataset,
        scale=scale,
        holdout_fraction=args.holdout,
        max_events=args.events,
        chunk_size=chunk_size,
        k=args.top_k,
        seed=args.seed,
        fold_in=FoldInConfig(l2=args.l2),
    )
    result = simulate_stream(config)
    print_table(
        [result.as_row()],
        title=f"stream-simulate — {args.dataset} scale={scale}",
    )
    print(
        f"applied {result.events_replayed} events in {result.apply_seconds:.3f}s "
        f"({result.events_per_second:,.0f} events/sec) across "
        f"{result.snapshot_generations} delta snapshot generations"
    )
    if result.refresh_signal is not None:
        print(f"drift: refresh recommended ({', '.join(result.refresh_signal.reasons)})")
    if args.smoke:
        # CI sanity floor: the loop must fold users in and serve them from the
        # model path; recall parity with the retrain is asserted by the
        # streaming benchmark at a more reliable scale.
        assert result.users_folded_in > 0, "smoke run folded no users in"
        assert result.snapshot_generations > 0, "smoke run never swapped a delta snapshot"
        assert result.foldin_recall > 0, "folded-in users have zero recall"
        print("smoke assertions passed")
    return 0


def _command_retrain_loop(args: argparse.Namespace) -> int:
    from .orchestrate.loop import RetrainLoopConfig, run_retrain_loop

    scale = args.scale
    epochs = args.epochs
    if args.smoke:
        scale = min(scale, 0.15)
        epochs = min(epochs, 2)
    config = RetrainLoopConfig(
        directory=args.directory,
        dataset=args.dataset,
        scale=scale,
        holdout_fraction=args.holdout,
        k=args.top_k,
        epochs=epochs,
        embedding_dim=args.embedding_dim,
        seed=args.seed,
        chunk_size=args.chunk_size,
        max_events=args.events,
        min_recall_ratio=args.min_recall_ratio,
        use_worker=args.worker,
        canary_fraction=args.canary_fraction,
        canary_mode=args.canary_mode,
        schedule=args.schedule,
        max_cycles=args.max_cycles,
    )
    result = run_retrain_loop(config)
    print_table(
        [result.as_row()],
        title=f"retrain-loop — {args.dataset} scale={scale} (run {result.run_id or '-'})",
    )
    for report in result.reports:
        if not report.idle:
            print(f"tick actions: {'; '.join(report.actions)}")
    if args.smoke:
        # CI lifecycle floor: the stream must trip drift, the orchestrator
        # must drive the run to a terminal outcome, and a promotion must not
        # regress recall below the incumbent's gate fraction.
        assert result.outcome is not None, "smoke run never reached a terminal outcome"
        assert result.wal_records > 0, "smoke run streamed no events through the WAL"
        if result.outcome == "promoted":
            assert result.serving_id != result.incumbent_id, "promotion did not swap"
            assert result.final_recall >= config.min_recall_ratio * result.incumbent_recall
        if args.canary_fraction > 0:
            assert result.canary_decision in {"promote", "abort"}, (
                f"canary stage never reached a verdict "
                f"(decision={result.canary_decision!r})"
            )
            # A verdict on no cohort traffic is a timeout, not a canary.
            assert result.canary_samples > 0, "canary verdict rested on no samples"
            if result.outcome == "aborted":
                # The serving snapshot may be a *delta* descendant of the
                # incumbent (streaming fold-in swaps), but an aborted canary
                # must record the abort and never have promoted the candidate.
                assert result.canary_decision == "abort"
        print("smoke assertions passed")
    return 0


def _command_canary_status(args: argparse.Namespace) -> int:
    from .orchestrate import canary_status

    status = canary_status(args.directory)
    if status["run_id"] is None:
        print(f"no orchestrator runs recorded in {status['directory']}")
        return 0
    stage = status["canary_stage"] or {}
    rows = [
        {
            "run": status["run_id"],
            "outcome": status["outcome"] or "in flight",
            "canary": stage.get("decision")
            or ("in flight" if stage and not stage.get("done") else "-"),
            "guardrail records": status["guardrail_records"],
        }
    ]
    print_table(rows, title=f"canary status — {status['directory']}")
    latest = status["latest"]
    if latest is not None:
        guardrails = latest["guardrails"]
        print(
            f"latest tick {latest['tick']} ({latest['mode']} at "
            f"{latest['fraction']:.0%}): decision={latest['decision']} "
            f"[{'; '.join(latest['reasons'])}]"
        )
        print(
            f"guardrails: samples={guardrails['samples']} "
            f"overlap@k={guardrails['mean_overlap']:.3f} "
            f"error_rate={guardrails['error_rate']:.3f} "
            f"degraded_rate={guardrails['degraded_rate']:.3f} "
            f"latency_ratio={guardrails['latency_ratio']:.2f} "
            f"mirrors(enq/drop)={guardrails['mirror_enqueued']}/"
            f"{guardrails['mirror_dropped']}"
        )
    elif stage:
        print("canary stage present but no guardrail records yet")
    return 0


def _command_fold_in(args: argparse.Namespace) -> int:
    from .serve import RecommendationService, load_snapshot, save_snapshot
    from .stream import EventLog, FoldInConfig, StreamingUpdater

    snapshot = load_snapshot(args.snapshot)
    service = RecommendationService(snapshot, default_k=args.top_k)
    log = EventLog()
    updater = StreamingUpdater(service, log, fold_in=FoldInConfig(l2=args.l2))
    before = service.recommend(args.user, k=args.top_k)
    for item in args.item:
        service.record_interaction(args.user, item)
    report = updater.apply()
    after = service.recommend(args.user, k=args.top_k)
    rows = [
        {
            "stage": stage,
            "source": recommendation.source,
            "snapshot": recommendation.snapshot_id,
            "items": " ".join(str(item) for item in recommendation.items),
        }
        for stage, recommendation in (("before", before), ("after", after))
    ]
    print_table(rows, columns=["stage", "source", "snapshot", "items"],
                title=f"fold-in user {args.user} ({len(args.item)} interactions)")
    fold = report.fold_ins[0] if report.fold_ins else None
    if fold is not None:
        print(
            f"folded in: residual={fold.residual:.4f} "
            f"({'new user' if fold.was_new else 'existing user'}) -> "
            f"delta snapshot {report.snapshot_id} (generation "
            f"{service.snapshot.delta_generation}, events {report.event_range})"
        )
    else:
        print("no fold-in applied (below min interactions)")
    if args.output:
        path = save_snapshot(service.snapshot, args.output)
        print(f"wrote delta snapshot to {path}")
    return 0


def _ops_corpus(dataset_scale: float):
    """(snapshot, service) serving corpus from synthetic ground-truth factors.

    Built *after* the caller enables metrics so the service binds live
    instrument handles; uses the latent factors the benchmark generator drew
    (no training needed — retrieval only cares about embedding geometry).
    """
    from .serve import ExactIndex, RecommendationService, build_snapshot

    dataset = load_benchmark("amazon-book", scale=dataset_scale)
    snapshot = build_snapshot(
        dataset.metadata["user_factors"],
        dataset.metadata["item_factors"],
        train_pairs=dataset.train,
        model_name="ground-truth-factors",
        dataset_name=dataset.name,
    )
    service = RecommendationService(
        snapshot, index=ExactIndex(snapshot.item_embeddings), default_k=10
    )
    return snapshot, service


def _ops_slos(interval: float, objective: float):
    """Demo SLOs with windows scaled to the tick interval so a short run can
    breach, fire, and (after the fault clears) resolve in seconds.  One
    latency observation lands per tick, so ``min_samples`` must fit inside
    ``fast_window / tick period``."""
    from .obs import default_serving_slos

    return default_serving_slos(
        latency_objective=objective,
        fast_window=interval * 10,
        slow_window=interval * 30,
        min_samples=5,
    )


def _command_ops_demo(args: argparse.Namespace) -> int:
    import contextlib
    import os
    import time as _time

    from .obs import HealthEngine, configure_logging, enable, enable_tracing, get_logger
    from .reliability.faults import FaultInjector, inject_faults

    registry = enable()
    enable_tracing()
    configure_logging(level="INFO")
    log = get_logger("repro.ops")
    snapshot, service = _ops_corpus(args.dataset_scale)
    engine = HealthEngine(
        registry=registry,
        slos=_ops_slos(args.interval, args.objective),
        interval=args.interval,
        log_dir=args.directory,
    )
    stack = contextlib.ExitStack()
    if args.brownout:
        os.environ.setdefault("REPRO_FAULTS", "1")
        injector = FaultInjector().arm(
            "serve.retrieval",
            times=None,
            probability=1.0,
            mode="delay",
            delay=args.delay,
        )
        stack.enter_context(inject_faults(injector))
        log.info("brownout armed", extra={"site": "serve.retrieval", "delay": args.delay})
    per_tick = min(snapshot.num_users, args.queries_per_tick)
    with stack:
        for tick in range(args.ticks):
            # Rotate the user batch so the LRU result cache doesn't absorb
            # the whole run after tick 1 — every tick must hit retrieval.
            users = [
                (tick * per_tick + i) % snapshot.num_users for i in range(per_tick)
            ]
            service.recommend_many(users, k=10)
            statuses = engine.tick()
            if tick + 1 < args.ticks:
                _time.sleep(args.interval)
    engine.save()
    firing = engine.alerts.firing()
    for status in statuses:
        print(
            f"slo {status.slo.name}: fast_burn={status.fast_burn:.2f} "
            f"slow_burn={status.slow_burn:.2f} "
            f"budget_remaining={status.budget_remaining:.1%} "
            f"{'BREACHING' if status.breaching else 'degraded' if status.degraded else 'ok'}"
        )
    print(
        f"ops-demo: {args.ticks} ticks, {engine.tsdb.samples_taken} samples, "
        f"{len(engine.tsdb)} series, {len(firing)} firing alert(s) -> {args.directory}"
    )
    if args.smoke:
        latency_firing = any(a.category == "latency" for a in firing)
        if args.brownout and not latency_firing:
            print("ops-demo smoke FAILED: brownout did not fire a latency alert")
            return 1
        if not args.brownout and firing:
            print("ops-demo smoke FAILED: healthy run has firing alerts")
            return 1
        print("ops-demo smoke ok")
    return 0


def _command_doctor(args: argparse.Namespace) -> int:
    from .obs.health import DoctorReport, bench_regressions, doctor_from_dir

    if args.directory is None and args.bench is None:
        print("doctor: nothing to examine (pass --directory and/or --bench)")
        return 2
    if args.directory is not None:
        report = doctor_from_dir(
            args.directory, bench_dir=args.bench, bench_tolerance=args.bench_tolerance
        )
    else:
        warnings = bench_regressions(args.bench, tolerance=args.bench_tolerance)
        code = 1 if warnings else 0
        report = DoctorReport(
            code=code,
            verdict="degraded" if warnings else "healthy",
            bench_warnings=warnings,
        )
    print(report.render())
    return report.code


def _command_alerts(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .obs import AlertManager

    log_path = Path(args.directory) / "alerts.jsonl"
    if not log_path.exists():
        print(f"no alert log at {log_path}")
        return 1
    manager = AlertManager(log_path=log_path)
    alerts = manager.alerts(state=args.state)
    rows = [
        {
            "alert": alert.name,
            "state": alert.state,
            "episode": alert.episode,
            "category": alert.category,
            "severity": alert.severity,
            "description": alert.description or "-",
        }
        for alert in sorted(alerts, key=lambda a: a.name)
    ]
    if rows:
        print_table(
            rows,
            columns=["alert", "state", "episode", "category", "severity", "description"],
            title=f"alerts ({args.state or 'all'})",
        )
    else:
        print(f"no alerts in state {args.state!r}" if args.state else "no alerts recorded")
    if args.tail:
        lines = [l for l in log_path.read_text().splitlines() if l.strip()]
        print(f"\nlast {min(args.tail, len(lines))} transition(s):")
        for line in lines[-args.tail :]:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            print(
                f"  ts={row.get('ts', 0):.3f} {row.get('event', '?'):<8} "
                f"{row.get('name', '?')} episode={row.get('episode', '?')}"
            )
    return 0


def _command_dashboard(args: argparse.Namespace) -> int:
    if args.directory is None and not args.demo:
        print("dashboard: pass --directory for a saved run or --demo for a live loop")
        return 2
    if args.directory is not None:
        from .obs.dashboard import render_offline

        print(render_offline(args.directory))
        return 0
    from .obs import HealthEngine, enable, run_dashboard

    registry = enable()
    _, service = _ops_corpus(args.dataset_scale)
    engine = HealthEngine(
        registry=registry,
        slos=_ops_slos(args.refresh, 0.05),
        interval=args.refresh,
    )
    users = list(range(min(service.snapshot.num_users, 16)))

    original_tick = engine.tick

    def serving_tick(now=None):
        # The demo generates its own traffic: serve a batch, then sample.
        service.recommend_many(users, k=10)
        return original_tick(now)

    engine.tick = serving_tick
    frames = run_dashboard(engine, refresh=args.refresh, iterations=args.frames)
    print(f"dashboard: {frames} frame(s) rendered")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro``; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "datasets":
        return _command_datasets(args)
    if args.command == "export-snapshot":
        return _command_export_snapshot(args)
    if args.command == "recommend":
        return _command_recommend(args)
    if args.command == "metrics-dump":
        return _command_metrics_dump(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "stream-simulate":
        return _command_stream_simulate(args)
    if args.command == "retrain-loop":
        return _command_retrain_loop(args)
    if args.command == "canary-status":
        return _command_canary_status(args)
    if args.command == "fold-in":
        return _command_fold_in(args)
    if args.command == "ops-demo":
        return _command_ops_demo(args)
    if args.command == "doctor":
        return _command_doctor(args)
    if args.command == "alerts":
        return _command_alerts(args)
    if args.command == "dashboard":
        return _command_dashboard(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
