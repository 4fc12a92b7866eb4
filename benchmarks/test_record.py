"""Benchmark history recorder: atomic appends and malformed-file recovery."""

from __future__ import annotations

import json

import pytest

from . import record as record_module
from .record import (
    RECORD_SCHEMA,
    _load_history,
    check_regression,
    current_commit,
    env_metadata,
    infer_direction,
    record,
)


class TestRecord:
    def test_appends_rows_across_calls(self, tmp_path):
        history = tmp_path / "bench.json"
        first = record("speedup", 1.5, path=history)
        second = record("speedup", 1.7, path=history)
        rows = json.loads(history.read_text())
        assert [row["value"] for row in rows] == [1.5, 1.7]
        assert first["metric"] == second["metric"] == "speedup"
        assert all(
            set(row) == {"metric", "value", "commit", "date", "schema", "env"}
            for row in rows
        )
        assert all(row["schema"] == RECORD_SCHEMA for row in rows)

    def test_env_metadata_is_hostname_free(self):
        import platform
        import socket

        env = env_metadata()
        assert set(env) == {"python", "numpy", "cpu_count"}
        assert env["python"] == platform.python_version()
        assert env["cpu_count"] >= 1
        # Nothing host-identifying may leak into shareable histories.
        hostname = socket.gethostname()
        assert hostname not in json.dumps(env)

    def test_rows_carry_env_context(self, tmp_path):
        row = record("m", 1.0, path=tmp_path / "bench.json")
        assert row["env"]["numpy"]  # non-empty version string
        assert isinstance(row["env"]["cpu_count"], int)

    def test_no_tmp_files_left_behind(self, tmp_path):
        history = tmp_path / "bench.json"
        record("m", 1.0, path=history)
        record("m", 2.0, path=history)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "bench.json"]
        assert leftovers == []

    def test_history_is_always_complete_json(self, tmp_path):
        # The on-disk file is replaced atomically, so at any observable point
        # it parses as a full JSON list.
        history = tmp_path / "bench.json"
        for n in range(5):
            record("m", float(n), path=history)
            assert isinstance(json.loads(history.read_text()), list)

    def test_malformed_history_is_backed_up_not_destroyed(self, tmp_path):
        history = tmp_path / "bench.json"
        history.write_text('[{"metric": "m", "value"')  # truncated document
        with pytest.warns(UserWarning, match="backed it up"):
            row = record("m", 3.0, path=history)
        backup = tmp_path / "bench.json.corrupt"
        assert backup.read_text().startswith('[{"metric"')
        rows = json.loads(history.read_text())
        assert rows == [row]

    def test_non_list_history_is_treated_as_malformed(self, tmp_path):
        history = tmp_path / "bench.json"
        history.write_text('{"metric": "m"}')  # valid JSON, wrong shape
        with pytest.warns(UserWarning, match="not a JSON list"):
            assert _load_history(history) == []
        assert (tmp_path / "bench.json.corrupt").exists()

    def test_missing_history_starts_empty(self, tmp_path):
        assert _load_history(tmp_path / "absent.json") == []

    def test_current_commit_is_short_hash_or_unknown(self):
        commit = current_commit()
        assert commit == "unknown" or (4 <= len(commit) <= 16)


def history_of(metric, values):
    return [{"metric": metric, "value": v, "schema": RECORD_SCHEMA} for v in values]


class TestCheckRegression:
    def test_abstains_below_four_rows(self):
        for n in range(1, 4):
            history = history_of("lat_seconds", [1.0] * (n - 1) + [100.0])
            assert check_regression(history, "lat_seconds") is None

    def test_flags_drift_past_tolerance(self):
        history = history_of("lat_seconds", [1.0, 1.05, 0.95, 1.0, 1.3])
        found = check_regression(history, "lat_seconds", tolerance=0.15)
        assert found is not None
        assert found["baseline"] == pytest.approx(1.0)
        assert found["value"] == 1.3
        assert found["drift"] == pytest.approx(0.3)
        assert found["direction"] == "lower"

    def test_trailing_median_is_robust_to_one_outlier(self):
        # A single earlier spike must not drag the baseline up.
        history = history_of("lat_seconds", [1.0, 9.0, 1.0, 1.02, 0.98, 1.05])
        assert check_regression(history, "lat_seconds", tolerance=0.15) is None

    def test_window_limits_the_baseline(self):
        # Old slow rows fall outside window=3; the recent fast era is the
        # baseline, so the newest slow value is flagged.
        history = history_of("lat_seconds", [5.0, 5.0, 5.0, 5.0, 1.0, 1.0, 1.0, 2.0])
        assert check_regression(history, "lat_seconds", window=3) is not None
        # With the full default window the old slow rows mask it.
        assert check_regression(history, "lat_seconds", window=7) is None

    def test_direction_inference_and_override(self):
        dropping = history_of("events_per_s", [100.0, 99.0, 101.0, 100.0, 60.0])
        assert check_regression(dropping, "events_per_s") is not None  # higher-better
        assert (
            check_regression(dropping, "events_per_s", direction="lower") is None
        )
        assert infer_direction("serve_latency_p99_ms") == "lower"
        assert infer_direction("obs_overhead_ratio_p50") == "lower"
        assert infer_direction("serve_throughput_qps") == "higher"

    def test_warning_rows_excluded_from_baseline(self):
        history = history_of("lat_seconds", [1.0, 1.0, 1.0, 1.0])
        history.append(
            {"metric": "lat_seconds", "kind": "regression_warning", "value": 50.0}
        )
        history.extend(history_of("lat_seconds", [1.02]))
        assert check_regression(history, "lat_seconds", tolerance=0.15) is None

    def test_other_metrics_ignored(self):
        history = history_of("a", [1.0, 1.0, 1.0, 1.0]) + history_of("b", [9.0])
        assert check_regression(history, "b") is None

    def test_zero_baseline_abstains(self):
        history = history_of("lat_seconds", [0.0, 0.0, 0.0, 5.0])
        assert check_regression(history, "lat_seconds") is None


class TestGuardedRecord:
    def seed(self, path, values):
        for v in values:
            record("lat_seconds", v, path=path)

    def test_regression_appends_warning_row(self, tmp_path):
        history = tmp_path / "bench.json"
        self.seed(history, [1.0, 1.02, 0.98, 1.01])
        with pytest.warns(UserWarning, match="benchmark regression"):
            record("lat_seconds", 1.5, path=history, guard_tolerance=0.15)
        rows = json.loads(history.read_text())
        warning = rows[-1]
        assert warning["kind"] == "regression_warning"
        assert warning["metric"] == "lat_seconds"
        assert warning["value"] == 1.5
        assert warning["direction"] == "lower"
        assert "trailing median" in warning["detail"]
        # The measurement row itself still precedes the warning.
        assert rows[-2]["value"] == 1.5 and "kind" not in rows[-2]

    def test_healthy_value_appends_no_warning(self, tmp_path):
        history = tmp_path / "bench.json"
        self.seed(history, [1.0, 1.02, 0.98, 1.01])
        record("lat_seconds", 1.03, path=history, guard_tolerance=0.15)
        rows = json.loads(history.read_text())
        assert all(row.get("kind") != "regression_warning" for row in rows)

    def test_guard_abstains_on_short_history(self, tmp_path):
        history = tmp_path / "bench.json"
        record("lat_seconds", 1.0, path=history)
        record("lat_seconds", 99.0, path=history, guard_tolerance=0.15)
        rows = json.loads(history.read_text())
        assert all(row.get("kind") != "regression_warning" for row in rows)

    def test_warning_rows_do_not_poison_future_baselines(self, tmp_path):
        history = tmp_path / "bench.json"
        self.seed(history, [1.0, 1.02, 0.98, 1.01])
        with pytest.warns(UserWarning):
            record("lat_seconds", 1.5, path=history, guard_tolerance=0.15)
        # Next healthy-ish value is judged against measurement rows only;
        # the 1.5 regression now sits in the median window, but the warning
        # row itself must not count twice.
        rows = json.loads(history.read_text())
        measurement_values = [
            r["value"] for r in rows if r.get("kind") != "regression_warning"
        ]
        assert measurement_values == [1.0, 1.02, 0.98, 1.01, 1.5]


class TestBoundedRecord:
    """``record(bound=...)`` — the benchmark's own acceptance threshold."""

    def test_ceiling_breach_marks_the_measurement_row(self, tmp_path):
        history = tmp_path / "bench.json"
        with pytest.warns(UserWarning, match="bound violated"):
            row = record("overhead_ratio", 1.4, path=history, bound=1.05)
        assert row["kind"] == "regression_warning"
        assert row["value"] == 1.4
        assert row["bound"] == 1.05
        assert row["direction"] == "lower"
        assert "ceiling" in row["detail"]
        rows = json.loads(history.read_text())
        assert rows == [row]  # one annotated row, no clean duplicate

    def test_floor_breach_for_higher_is_better_metric(self, tmp_path):
        history = tmp_path / "bench.json"
        with pytest.warns(UserWarning, match="bound violated"):
            row = record("epoch_speedup", 1.1, path=history, bound=1.2)
        assert row["kind"] == "regression_warning"
        assert row["direction"] == "higher"
        assert "floor" in row["detail"]

    def test_within_bound_row_stays_clean(self, tmp_path):
        history = tmp_path / "bench.json"
        row = record("overhead_ratio", 1.01, path=history, bound=1.05)
        assert set(row) == {"metric", "value", "commit", "date", "schema", "env"}

    def test_breach_rows_never_enter_future_medians(self, tmp_path):
        history = tmp_path / "bench.json"
        for v in [1.0, 1.02, 0.98, 1.01]:
            record("overhead_ratio", v, path=history, bound=1.05)
        with pytest.warns(UserWarning, match="bound violated"):
            record("overhead_ratio", 1.4, path=history, bound=1.05)
        # The outlier is excluded: a subsequent healthy value is compared to
        # the healthy median (~1.0) and passes without a drift warning.
        record("overhead_ratio", 1.03, path=history, bound=1.05, guard_tolerance=0.15)
        rows = json.loads(history.read_text())
        assert [r["value"] for r in rows if r.get("kind") != "regression_warning"] == [
            1.0, 1.02, 0.98, 1.01, 1.03,
        ]
        assert sum(r.get("kind") == "regression_warning" for r in rows) == 1

    def test_breach_skips_the_median_guard(self, tmp_path):
        # A bound breach must not also fire the trailing-median guard: the
        # row is already flagged, and the guard's "newest" would otherwise
        # point at a stale (pre-breach) measurement.
        history = tmp_path / "bench.json"
        for v in [1.0, 1.02, 0.98, 1.01]:
            record("overhead_ratio", v, path=history)
        with pytest.warns(UserWarning, match="bound violated"):
            record("overhead_ratio", 1.4, path=history, bound=1.05, guard_tolerance=0.15)
        rows = json.loads(history.read_text())
        assert sum(r.get("kind") == "regression_warning" for r in rows) == 1


class TestContextRecord:
    """``record(context=True)`` — raw machine-speed rows, never contracts."""

    def test_context_row_is_stamped(self, tmp_path):
        history = tmp_path / "bench.json"
        row = record("ratio_disabled_qps", 40000.0, path=history, context=True)
        assert row["kind"] == "context"
        assert json.loads(history.read_text()) == [row]

    def test_context_rows_excluded_from_medians(self, tmp_path):
        history = tmp_path / "bench.json"
        for v in [1.0, 1.02, 0.98, 1.01]:
            record("lat_seconds", v, path=history)
        # A wild same-metric context row must not move the baseline: the
        # next healthy measurement is judged against the clean median.
        record("lat_seconds", 50.0, path=history, context=True)
        record("lat_seconds", 1.03, path=history, guard_tolerance=0.15)
        rows = json.loads(history.read_text())
        assert all(r.get("kind") != "regression_warning" for r in rows)

    def test_context_rows_are_not_the_newest_check_regression_judges(self):
        history = [
            {"metric": "lat_seconds", "value": v, "schema": RECORD_SCHEMA}
            for v in [1.0, 1.02, 0.98, 1.01, 1.5]
        ]
        history.append(
            {
                "metric": "lat_seconds",
                "value": 1.0,
                "kind": "context",
                "schema": RECORD_SCHEMA,
            }
        )
        # The trailing context row is transparent: the 1.5 measurement is
        # still the newest and still flags.
        found = check_regression(history, "lat_seconds", tolerance=0.15)
        assert found is not None and found["value"] == 1.5

    def test_context_refuses_guards(self, tmp_path):
        with pytest.raises(ValueError, match="context rows"):
            record("x_qps", 1.0, path=tmp_path / "b.json", context=True, bound=2.0)
        with pytest.raises(ValueError, match="context rows"):
            record(
                "x_qps", 1.0, path=tmp_path / "b.json", context=True, guard_tolerance=0.1
            )


class TestOptInRecording:
    """Tracked histories at the repository root are written only on opt-in."""

    @pytest.fixture()
    def tracked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(record_module, "REPO_ROOT", tmp_path)
        monkeypatch.delenv(record_module.RECORD_ENV, raising=False)
        history = tmp_path / "BENCH_x.json"
        history.write_text(json.dumps([{"metric": "speedup", "value": v} for v in [1.5, 1.5, 1.5]]))
        return history

    def test_tracked_history_untouched_without_opt_in(self, tracked):
        before = tracked.read_text()
        with pytest.warns(UserWarning, match="benchmark regression"):
            row = record("speedup", 1.0, path=tracked, guard_tolerance=0.15)
        # The row is built and the stored history still judges it.
        assert row["value"] == 1.0
        assert tracked.read_text() == before

    def test_tracked_history_written_with_opt_in(self, tracked, monkeypatch):
        monkeypatch.setenv(record_module.RECORD_ENV, "1")
        record("speedup", 1.6, path=tracked)
        assert [row["value"] for row in json.loads(tracked.read_text())] == [1.5, 1.5, 1.5, 1.6]
