"""Lifecycle loop: graceful SIGINT drain and config validation.

The chaos/canary integration suites drive the orchestrator directly; this
file covers the ``repro retrain-loop`` wrapper itself.  The SIGINT test
raises a real signal from *inside* the loop (hooked through the streaming
updater, which runs exactly once per chunk) so the drain path is exercised
deterministically: the tick in flight must finish and journal, the loop must
not start another chunk, and the previous signal disposition must be
restored.
"""

from __future__ import annotations

import json
import signal

import pytest

from repro.orchestrate.loop import RetrainLoopConfig, run_retrain_loop
from repro.stream.updater import StreamingUpdater


def tiny_config(tmp_path, **overrides) -> RetrainLoopConfig:
    defaults = dict(
        directory=tmp_path,
        scale=0.1,
        epochs=1,
        embedding_dim=8,
        chunk_size=64,
        max_ticks=8,
        canary_fraction=0.5,
    )
    defaults.update(overrides)
    return RetrainLoopConfig(**defaults)


class TestSigintDrain:
    def test_first_sigint_finishes_the_tick_then_exits_cleanly(
        self, tmp_path, monkeypatch
    ):
        original_apply = StreamingUpdater.apply
        applies = {"count": 0}

        def interrupting_apply(self, *args, **kwargs):
            applies["count"] += 1
            if applies["count"] == 2:
                # A real Ctrl-C mid-chunk: the loop's handler only raises a
                # flag, so the rest of this tick must still run and journal.
                signal.raise_signal(signal.SIGINT)
            return original_apply(self, *args, **kwargs)

        monkeypatch.setattr(StreamingUpdater, "apply", interrupting_apply)
        disposition_before = signal.getsignal(signal.SIGINT)

        result = run_retrain_loop(tiny_config(tmp_path))

        assert result.interrupted is True
        assert result.as_row()["interrupted"] is True
        # The interrupted tick completed; no further chunk was started.
        assert applies["count"] == 2
        assert result.events_streamed <= 2 * 64
        # Whatever the orchestrator journaled mid-drain must be readable —
        # a fresh controller picks up from here.
        journal = tmp_path / "orchestrator.json"
        if journal.exists():
            state = json.loads(journal.read_text())
            assert "stages" in state
        # The loop must not leak its signal handler into the test process.
        assert signal.getsignal(signal.SIGINT) is disposition_before

    def test_uninterrupted_run_reports_not_interrupted(self, tmp_path):
        result = run_retrain_loop(
            tiny_config(tmp_path, canary_fraction=0.0, max_ticks=4)
        )
        assert result.interrupted is False
        assert "interrupted" not in result.as_row()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_cycles": 0},
            {"canary_fraction": 1.5},
            {"canary_min_samples": 0},
            {"max_ticks": 0},
        ],
    )
    def test_bad_knobs_rejected(self, tmp_path, overrides):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, **overrides)


class TestCanaryTraffic:
    def test_canary_verdict_rests_on_cohort_samples(self, tmp_path):
        # The smoke run's config: 15 users stream in, and the cohort is a hash
        # of the run id.  The canary serves every known user, so its verdict
        # rests on real cohort traffic, not on the tick budget running out.
        result = run_retrain_loop(
            RetrainLoopConfig(directory=tmp_path, scale=0.15, epochs=2, canary_fraction=0.2)
        )
        assert result.canary_decision in {"promote", "abort"}
        assert result.canary_samples > 0
        assert result.as_row()["canary samples"] == result.canary_samples
