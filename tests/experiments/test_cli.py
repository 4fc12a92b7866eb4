"""CLI entry point."""

from __future__ import annotations

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses_options(self):
        args = build_parser().parse_args(
            ["run", "fig4", "--epochs", "3", "--dataset-scale", "0.2", "--seed", "7"]
        )
        assert args.experiment == "fig4"
        assert args.epochs == 3
        assert args.dataset_scale == pytest.approx(0.2)
        assert args.seed == 7

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_subcommand_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["definitely-not-a-command"])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for identifier in ("table2", "table3", "fig4", "fig8", "theorems"):
            assert identifier in output

    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", "0.15"]) == 0
        output = capsys.readouterr().out
        for name in ("amazon-book", "yelp", "steam"):
            assert name in output

    def test_run_table2(self, capsys):
        assert main(["run", "table2", "--dataset-scale", "0.15", "--epochs", "1"]) == 0
        output = capsys.readouterr().out
        assert "Dataset summary" in output or "Table II" in output

    def test_run_fig7_small(self, capsys):
        exit_code = main(
            [
                "run",
                "fig7",
                "--dataset-scale",
                "0.12",
                "--epochs",
                "1",
                "--embedding-dim",
                "8",
                "--llm-dim",
                "16",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "recall@10" in output


class TestServingCommands:
    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("snapshots") / "cli_model.npz"
        exit_code = main(
            [
                "export-snapshot",
                "--output",
                str(path),
                "--dataset",
                "amazon-book",
                "--backbone",
                "bpr-mf",
                "--variant",
                "baseline",
                "--dataset-scale",
                "0.15",
                "--epochs",
                "1",
            ]
        )
        assert exit_code == 0
        assert path.exists()
        return path

    def test_export_prints_summary(self, snapshot_path, capsys):
        # The fixture already exported; re-run to capture the summary line.
        assert main(
            [
                "export-snapshot",
                "-o",
                str(snapshot_path),
                "--backbone",
                "bpr-mf",
                "--variant",
                "baseline",
                "--dataset-scale",
                "0.15",
                "--epochs",
                "1",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "wrote" in output and "id=" in output

    def test_recommend_serves_without_model_code(self, snapshot_path, capsys):
        assert main(["recommend", "--snapshot", str(snapshot_path), "--user", "0", "-k", "5"]) == 0
        output = capsys.readouterr().out
        assert "model" in output
        assert "top-5" in output

    def test_recommend_ivf_index(self, snapshot_path, capsys):
        exit_code = main(
            ["recommend", "-s", str(snapshot_path), "-u", "0", "-u", "3", "-k", "5", "--index", "ivf"]
        )
        assert exit_code == 0
        assert "(ivf)" in capsys.readouterr().out

    def test_recommend_unknown_user_falls_back(self, snapshot_path, capsys):
        assert main(["recommend", "-s", str(snapshot_path), "-u", "999999", "-k", "3"]) == 0
        assert "popularity" in capsys.readouterr().out

    def test_recommend_requires_snapshot(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "--user", "0"])


class TestStreamingCommands:
    @pytest.fixture(scope="class")
    def tiny_snapshot_path(self, tmp_path_factory):
        import numpy as np

        from repro.serve import build_snapshot, save_snapshot

        rng = np.random.default_rng(0)
        snapshot = build_snapshot(
            rng.normal(size=(12, 8)),
            rng.normal(size=(20, 8)),
            train_pairs=np.column_stack(
                [rng.integers(0, 12, 60), rng.integers(0, 20, 60)]
            ),
            model_name="cli-test",
        )
        return str(save_snapshot(snapshot, tmp_path_factory.mktemp("stream") / "tiny.npz"))

    def test_stream_simulate_parses(self):
        args = build_parser().parse_args(
            ["stream-simulate", "--events", "500", "--smoke"]
        )
        assert args.command == "stream-simulate"
        assert args.events == 500
        assert args.smoke

    def test_fold_in_parses(self):
        args = build_parser().parse_args(
            ["fold-in", "-s", "x.npz", "-u", "7", "-i", "1", "-i", "2"]
        )
        assert args.command == "fold-in"
        assert args.user == 7
        assert args.item == [1, 2]

    def test_fold_in_requires_items(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fold-in", "-s", "x.npz", "-u", "7"])

    def test_stream_simulate_smoke_runs(self, capsys):
        assert main(["stream-simulate", "--events", "200", "--smoke"]) == 0
        output = capsys.readouterr().out
        assert "events/sec" in output
        assert "smoke assertions passed" in output

    def test_fold_in_new_user_end_to_end(self, tiny_snapshot_path, capsys):
        exit_code = main(
            [
                "fold-in",
                "--snapshot",
                tiny_snapshot_path,
                "--user",
                "999",
                "--item",
                "1",
                "--item",
                "5",
                "--item",
                "9",
                "-k",
                "5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "popularity" in output  # before: cold
        assert "model" in output  # after: personalised
        assert "new user" in output

    def test_fold_in_saves_delta(self, tiny_snapshot_path, tmp_path, capsys):
        from repro.serve import load_snapshot

        out = tmp_path / "delta.npz"
        exit_code = main(
            [
                "fold-in",
                "--snapshot",
                tiny_snapshot_path,
                "--user",
                "999",
                "--item",
                "1",
                "--item",
                "5",
                "--item",
                "9",
                "--output",
                str(out),
            ]
        )
        assert exit_code == 0
        delta = load_snapshot(out)
        assert delta.is_delta
        assert delta.num_users == 1000
        assert delta.delta_event_range == (0, 3)


class TestRetrainLoopCommand:
    def test_retrain_loop_parses(self):
        args = build_parser().parse_args(
            [
                "retrain-loop",
                "--directory",
                "/tmp/lc",
                "--events",
                "300",
                "--min-recall-ratio",
                "0.8",
                "--worker",
                "--smoke",
            ]
        )
        assert args.command == "retrain-loop"
        assert args.directory == "/tmp/lc"
        assert args.events == 300
        assert args.min_recall_ratio == pytest.approx(0.8)
        assert args.worker
        assert args.smoke

    def test_retrain_loop_requires_directory(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["retrain-loop"])

    def test_retrain_loop_canary_flags_parse(self):
        args = build_parser().parse_args(
            [
                "retrain-loop",
                "--directory",
                "/tmp/lc",
                "--canary-fraction",
                "0.2",
                "--canary-mode",
                "canary",
                "--schedule",
                "@every 30m",
                "--max-cycles",
                "3",
            ]
        )
        assert args.canary_fraction == pytest.approx(0.2)
        assert args.canary_mode == "canary"
        assert args.schedule == "@every 30m"
        assert args.max_cycles == 3

    def test_retrain_loop_canary_defaults_off(self):
        args = build_parser().parse_args(["retrain-loop", "--directory", "/tmp/lc"])
        assert args.canary_fraction == 0.0
        assert args.canary_mode == "shadow"
        assert args.schedule is None
        assert args.max_cycles == 1

    def test_retrain_loop_rejects_unknown_canary_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["retrain-loop", "--directory", "/tmp/lc", "--canary-mode", "mirror"]
            )


class TestCanaryStatusCommand:
    def test_parses_directory(self):
        args = build_parser().parse_args(["canary-status", "--directory", "/tmp/lc"])
        assert args.command == "canary-status"
        assert args.directory == "/tmp/lc"

    def test_requires_directory(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["canary-status"])

    def test_runs_on_empty_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["canary-status", "--directory", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run" in out


class TestObservabilityCommands:
    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs_snapshots") / "obs_model.npz"
        assert main(
            [
                "export-snapshot",
                "-o",
                str(path),
                "--backbone",
                "bpr-mf",
                "--variant",
                "baseline",
                "--dataset-scale",
                "0.15",
                "--epochs",
                "1",
            ]
        ) == 0
        return path

    @pytest.fixture(autouse=True)
    def _reset_observability(self):
        # `recommend --metrics-dump/--trace-dump` flips the process-global
        # switches; a real CLI process exits right after, but in-process test
        # invocations must not leak enabled state into other tests.
        yield
        from repro.obs import disable, disable_tracing

        disable()
        disable_tracing()

    def test_recommend_metrics_dump_is_parseable(self, snapshot_path, tmp_path, capsys):
        from repro.obs import read_metrics_jsonl

        dump = tmp_path / "metrics.jsonl"
        assert main(
            ["recommend", "-s", str(snapshot_path), "-u", "0", "-k", "5",
             "--metrics-dump", str(dump)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        header, families = read_metrics_jsonl(dump)
        assert header["schema"] == 1
        names = {family["name"] for family in families}
        assert "serve.queries.total" in names
        assert "serve.request.latency_seconds" in names
        queries = next(f for f in families if f["name"] == "serve.queries.total")
        assert queries["series"][0]["value"] == 1

    def test_metrics_dump_command_renders_all_formats(self, snapshot_path, tmp_path, capsys):
        dump = tmp_path / "metrics.jsonl"
        main(["recommend", "-s", str(snapshot_path), "-u", "0", "--metrics-dump", str(dump)])
        capsys.readouterr()
        assert main(["metrics-dump", "-i", str(dump)]) == 0
        assert "serve.queries.total" in capsys.readouterr().out
        assert main(["metrics-dump", "-i", str(dump), "--format", "prometheus"]) == 0
        assert "serve_queries_total 1" in capsys.readouterr().out
        assert main(["metrics-dump", "-i", str(dump), "--format", "json"]) == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["meta"]["kind"] == "meta"

    def test_trace_roundtrip_renders_flamegraph(self, snapshot_path, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(
            ["recommend", "-s", str(snapshot_path), "-u", "0", "--trace-dump", str(spans)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "-i", str(spans)]) == 0
        rendered = capsys.readouterr().out
        assert "serve.recommend_many" in rendered
        assert "flame:" in rendered

    def test_version_includes_active_snapshot_in_context(
        self, snapshot_path, monkeypatch, capsys
    ):
        from repro.serve import load_snapshot

        expected = load_snapshot(snapshot_path).snapshot_id
        monkeypatch.chdir(snapshot_path.parent)
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert f"repro {__version__}" in output
        assert f"(snapshot {expected})" in output

    def test_version_plain_outside_snapshot_context(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main(["--version"])
        output = capsys.readouterr().out.strip()
        assert output == f"repro {__version__}"
