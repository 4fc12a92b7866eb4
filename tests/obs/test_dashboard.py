"""Dashboard rendering, doctor exit codes, and bench-regression checks.

The regression check lives once, in :mod:`repro.obs.health`;
``benchmarks/record.py`` imports it, so the doctor and the bench runs judge a
history by the same code.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.obs import use_registry
from repro.obs.dashboard import (
    budget_bar,
    render_dashboard,
    render_offline,
    run_dashboard,
    sparkline,
)
from repro.obs.health import (
    HealthEngine,
    bench_regressions,
    check_regression,
    doctor_from_dir,
    doctor_verdict,
    infer_direction,
)
from repro.obs.slo import SLO

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_record_module():
    spec = importlib.util.spec_from_file_location(
        "bench_record", REPO_ROOT / "benchmarks" / "record.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_record", module)
    spec.loader.exec_module(module)
    return module


def tight_slo(**overrides) -> SLO:
    base = dict(
        name="lat",
        kind="latency",
        metric="lat_seconds",
        objective=0.050,
        fast_window=10.0,
        slow_window=30.0,
        budget_window=120.0,
        min_samples=5,
        category="latency",
    )
    base.update(overrides)
    return SLO(**base)


def driven_engine(registry, clock, latency, seconds=40, tmp_dir=None):
    engine = HealthEngine(
        registry=registry, slos=[tight_slo()], clock=clock, log_dir=tmp_dir
    )
    hist = registry.histogram("lat_seconds", "x")
    for _ in range(seconds):
        clock.advance(1.0)
        for _ in range(5):
            hist.observe(latency)
        engine.tick()
    return engine


class TestPrimitives:
    def test_sparkline_shape_and_scaling(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert len(line) == 8
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_resamples_to_width(self):
        assert len(sparkline(range(1000), width=40)) == 40

    def test_sparkline_flat_and_empty(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_budget_bar_fill_levels(self):
        assert budget_bar(1.0) == "[" + "█" * 20 + "]"
        assert budget_bar(0.0) == "[" + "░" * 20 + "]"
        half = budget_bar(0.5)
        assert half.count("█") == 10 and half.count("░") == 10
        assert budget_bar(7.5) == budget_bar(1.0)  # clamped
        assert budget_bar(-2.0) == budget_bar(0.0)


class TestRenderDashboard:
    def test_healthy_frame(self, clock):
        with use_registry() as registry:
            engine = driven_engine(registry, clock, latency=0.004)
            frame = render_dashboard(engine)
        assert "1 SLOs, 0 firing" in frame
        assert "lat_seconds p99" in frame
        assert "SLO lat" in frame
        assert "ok" in frame and "BREACHING" not in frame
        assert "no firing alerts" in frame
        assert any(ch in frame for ch in "▁▂▃▄▅▆▇█")

    def test_breaching_frame_shows_alert_panel(self, clock):
        with use_registry() as registry:
            engine = driven_engine(registry, clock, latency=0.2)
            frame = render_dashboard(engine)
        assert "BREACHING" in frame
        assert "ALERT slo:lat FIRING" in frame
        assert "1 firing" in frame
        assert "\x1b[31m" not in frame  # color off by default

    def test_color_codes_only_when_requested(self, clock):
        with use_registry() as registry:
            engine = driven_engine(registry, clock, latency=0.2)
            assert "\x1b[31m" in render_dashboard(engine, color=True)

    def test_run_dashboard_draws_requested_frames(self, clock):
        import io

        with use_registry() as registry:
            engine = driven_engine(registry, clock, latency=0.004)
            stream = io.StringIO()
            frames = run_dashboard(
                engine, refresh=0.0, iterations=2, stream=stream, color=False
            )
        assert frames == 2
        assert stream.getvalue().count("repro health") == 2


class TestRenderOffline:
    def test_offline_frame_from_saved_run(self, clock, tmp_path):
        with use_registry() as registry:
            engine = driven_engine(registry, clock, latency=0.2, tmp_dir=tmp_path)
            engine.save()
        frame = render_offline(tmp_path)
        assert "offline" in frame
        assert "lat_seconds" in frame
        assert "SLO lat" in frame
        assert "ALERT slo:lat FIRING" in frame

    def test_offline_empty_directory(self, tmp_path):
        frame = render_offline(tmp_path)
        assert "0 series" in frame


class TestDoctorVerdict:
    def test_exit_codes_across_health_states(self, clock):
        with use_registry() as registry:
            engine = driven_engine(registry, clock, latency=0.004)
            report = doctor_verdict(engine.last_statuses, engine.alerts.alerts())
            assert (report.code, report.verdict) == (0, "healthy")
        with use_registry() as registry:
            clock.advance(100.0)
            engine = driven_engine(registry, clock, latency=0.2)
            report = doctor_verdict(engine.last_statuses, engine.alerts.alerts())
            assert (report.code, report.verdict) == (2, "firing")
            assert "exit 2" in report.render()
            assert any("breaching" in note for note in report.notes)

    def test_degraded_from_fast_spike(self, clock):
        with use_registry() as registry:
            engine = HealthEngine(
                registry=registry,
                slos=[tight_slo(slow_window=2000.0, budget_window=4000.0)],
                clock=clock,
                for_duration=60.0,  # alert still pending: degraded, not firing
            )
            hist = registry.histogram("lat_seconds", "x")
            for _ in range(600):
                clock.advance(1.0)
                for _ in range(5):
                    hist.observe(0.004)
                engine.tick()
            for _ in range(8):
                clock.advance(1.0)
                for _ in range(5):
                    hist.observe(0.2)
                engine.tick()
            report = doctor_verdict(engine.last_statuses, engine.alerts.alerts())
        assert (report.code, report.verdict) == (1, "degraded")

    def test_bench_warning_alone_is_degraded(self):
        report = doctor_verdict(
            [], [], bench_warnings=[{"file": "BENCH_x.json", "metric": "m", "detail": "d"}]
        )
        assert report.code == 1
        assert "BENCH_x.json" in report.render()


class TestDoctorFromDir:
    def test_saved_firing_run_exits_2(self, clock, tmp_path):
        with use_registry() as registry:
            engine = driven_engine(registry, clock, latency=0.2, tmp_dir=tmp_path)
            engine.save()
        report = doctor_from_dir(tmp_path)
        assert report.code == 2
        assert any("BREACHING" in note for note in report.notes)

    def test_saved_healthy_run_exits_0(self, clock, tmp_path):
        with use_registry() as registry:
            engine = driven_engine(registry, clock, latency=0.004, tmp_dir=tmp_path)
            engine.save()
        assert doctor_from_dir(tmp_path).code == 0

    def test_crashed_run_falls_back_to_alert_log(self, clock, tmp_path):
        with use_registry() as registry:
            driven_engine(registry, clock, latency=0.2, tmp_dir=tmp_path)
            # No save(): only the live alerts.jsonl exists.
        assert not (tmp_path / "slos.json").exists()
        assert doctor_from_dir(tmp_path).code == 2

    def test_empty_directory_is_healthy(self, tmp_path):
        assert doctor_from_dir(tmp_path).code == 0


def write_history(path, metric, values, warning_rows=()):
    rows = [{"metric": metric, "value": v, "schema": 1} for v in values]
    rows.extend(warning_rows)
    path.write_text(json.dumps(rows))


class TestBenchRegressions:
    def test_latency_jump_flagged(self, tmp_path):
        write_history(
            tmp_path / "BENCH_serve.json",
            "serve_latency_p50_ms",
            [10.0, 10.2, 9.9, 10.1, 14.0],
        )
        found = bench_regressions(tmp_path, tolerance=0.15)
        assert len(found) == 1
        assert found[0]["metric"] == "serve_latency_p50_ms"
        assert found[0]["source"] == "trend"

    def test_throughput_drop_flagged_higher_is_better(self, tmp_path):
        write_history(
            tmp_path / "BENCH_serve.json",
            "serve_throughput_qps",
            [100.0, 101.0, 99.0, 100.0, 70.0],
        )
        assert len(bench_regressions(tmp_path, tolerance=0.15)) == 1

    def test_improvement_not_flagged(self, tmp_path):
        write_history(
            tmp_path / "BENCH_serve.json",
            "serve_latency_p50_ms",
            [10.0, 10.2, 9.9, 10.1, 7.0],
        )
        assert bench_regressions(tmp_path, tolerance=0.15) == []

    def test_short_history_abstains(self, tmp_path):
        write_history(tmp_path / "BENCH_x.json", "serve_latency_p50_ms", [10.0, 20.0])
        assert bench_regressions(tmp_path, tolerance=0.15) == []

    def test_recorded_warning_rows_surface(self, tmp_path):
        write_history(
            tmp_path / "BENCH_x.json",
            "m_seconds",
            [1.0, 1.0],
            warning_rows=[
                {
                    "kind": "regression_warning",
                    "metric": "m_seconds",
                    "detail": "recorded at bench time",
                }
            ],
        )
        found = bench_regressions(tmp_path)
        assert [w["source"] for w in found] == ["recorded"]

    def test_context_rows_are_never_trend_checked(self, tmp_path):
        # Raw machine-speed rows (kind="context") explain a headline ratio
        # but track the CI box, not the code: a slower machine must not
        # degrade the doctor's verdict.
        rows = [
            {"metric": "ratio_disabled_qps", "value": v, "kind": "context", "schema": 1}
            for v in [40000.0, 41000.0, 39000.0, 40500.0, 20000.0]
        ]
        (tmp_path / "BENCH_x.json").write_text(json.dumps(rows))
        assert bench_regressions(tmp_path, tolerance=0.15) == []

    def test_superseded_warning_rows_do_not_surface(self, tmp_path):
        # A warning followed by a newer healthy measurement of the same
        # metric is history, not state: the checkout recovered, the doctor
        # must stop flagging it.
        rows = [
            {"metric": "m_seconds", "value": 1.0, "schema": 1},
            {
                "kind": "regression_warning",
                "metric": "m_seconds",
                "detail": "recorded at bench time",
            },
            {"metric": "m_seconds", "value": 1.01, "schema": 1},
        ]
        (tmp_path / "BENCH_x.json").write_text(json.dumps(rows))
        assert bench_regressions(tmp_path) == []

    def test_other_metrics_do_not_supersede_a_warning(self, tmp_path):
        rows = [
            {
                "kind": "regression_warning",
                "metric": "m_seconds",
                "detail": "recorded at bench time",
            },
            {"metric": "other_seconds", "value": 1.0, "schema": 1},
        ]
        (tmp_path / "BENCH_x.json").write_text(json.dumps(rows))
        found = bench_regressions(tmp_path)
        assert [w["metric"] for w in found] == ["m_seconds"]

    def test_missing_directory_and_garbage_files(self, tmp_path):
        assert bench_regressions(tmp_path / "nope") == []
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        (tmp_path / "BENCH_dict.json").write_text('{"metric": "x"}')
        assert bench_regressions(tmp_path) == []


class TestOneRegressionCheck:
    """``repro doctor --bench`` and the bench harness share one check."""

    HISTORIES = [
        ("serve_latency_p50_ms", [10.0, 10.2, 9.9, 10.1, 14.0], True),
        ("serve_latency_p50_ms", [10.0, 10.2, 9.9, 10.1, 10.3], False),
        ("serve_throughput_qps", [100.0, 99.0, 101.0, 100.0, 70.0], True),
        ("serve_throughput_qps", [100.0, 99.0, 101.0, 100.0, 130.0], False),
        ("obs_overhead_ratio_p50", [1.01, 1.02, 1.0, 1.01, 1.4], True),
        ("ndcg_at_20", [0.05, 0.051, 0.049, 0.05, 0.02], True),
    ]

    def test_record_module_imports_the_check(self):
        record = load_record_module()
        assert record.check_regression is check_regression
        assert record.infer_direction is infer_direction

    @pytest.mark.parametrize("metric, values, expect", HISTORIES)
    def test_same_verdict_on_same_history(self, tmp_path, metric, values, expect):
        history = [{"metric": metric, "value": v, "schema": 1} for v in values]
        direct = check_regression(history, metric, tolerance=0.15)
        write_history(tmp_path / "BENCH_sync.json", metric, values)
        from_dir = bench_regressions(tmp_path, tolerance=0.15)
        assert (direct is not None) == expect
        assert bool(from_dir) == expect
        if expect:
            assert from_dir[0]["metric"] == metric
            assert direct["metric"] == metric

    @pytest.mark.parametrize(
        "metric, expect",
        [
            ("serve_latency_p50_ms", "lower"),
            ("build_seconds", "lower"),
            ("obs_overhead_ratio_p50", "lower"),
            ("wall_time_s", "lower"),
            ("serve_throughput_qps", "higher"),
            ("ndcg_at_20", "higher"),
            ("recall_at_20", "higher"),
            ("events_per_s", "higher"),
            # Compound metric names inherit their parent's tokens; the unit
            # suffix is the ground truth for which way is better.
            ("epoch_speedup_eager_ms", "lower"),
            ("epoch_speedup_compiled_ms", "lower"),
            ("serving_overhead_ratio_disabled_qps", "higher"),
            ("shadow_p50_overhead_ratio_bare_p50_ms", "lower"),
        ],
    )
    def test_direction_inference(self, metric, expect):
        assert infer_direction(metric) == expect
