"""OpProfiler: accumulation, top-K reports, and compiled-step integration."""

from __future__ import annotations

import pytest

from repro.obs.profile import OpProfiler


class TestOpProfiler:
    def test_add_accumulates(self):
        profiler = OpProfiler()
        profiler.add("matmul.fwd", 0.5)
        profiler.add("matmul.fwd", 0.25, calls=3)
        assert profiler.seconds["matmul.fwd"] == pytest.approx(0.75)
        assert profiler.calls["matmul.fwd"] == 4
        assert profiler.total_seconds == pytest.approx(0.75)

    def test_time_context_manager(self):
        profiler = OpProfiler()
        with profiler.time("block"):
            sum(range(1000))
        assert profiler.seconds["block"] > 0.0
        assert profiler.calls["block"] == 1

    def test_time_records_on_exception(self):
        profiler = OpProfiler()
        with pytest.raises(RuntimeError):
            with profiler.time("boom"):
                raise RuntimeError
        assert profiler.calls["boom"] == 1

    def test_reset(self):
        profiler = OpProfiler()
        profiler.add("x", 1.0)
        profiler.reset()
        assert profiler.total_seconds == 0.0
        assert profiler.calls == {}

    def test_report_ranks_and_buckets_the_tail(self):
        profiler = OpProfiler()
        profiler.add("hot", 3.0, calls=10)
        profiler.add("warm", 2.0, calls=5)
        profiler.add("cool", 1.0)
        report = profiler.report(top_k=2)
        assert [row.key for row in report.rows] == ["hot", "warm"]
        assert report.rows[0].share == pytest.approx(0.5)
        assert report.rows[0].per_call == pytest.approx(0.3)
        assert report.other_keys == 1
        assert report.other_seconds == pytest.approx(1.0)
        # Rows + remainder always reconstruct the total.
        assert sum(r.seconds for r in report.rows) + report.other_seconds == pytest.approx(
            report.total_seconds
        )
        assert report.total_calls == 16

    def test_report_validation_and_empty(self):
        profiler = OpProfiler()
        with pytest.raises(ValueError):
            profiler.report(top_k=0)
        report = profiler.report()
        assert report.total_seconds == 0.0
        assert report.rows == ()

    def test_render_and_as_dict(self):
        profiler = OpProfiler()
        profiler.add("matmul.fwd", 0.5, calls=2)
        report = profiler.report(top_k=1)
        rendered = report.render()
        assert "matmul.fwd" in rendered
        assert "op profile:" in rendered
        payload = report.as_dict()
        assert payload["rows"][0]["key"] == "matmul.fwd"
        assert payload["total_calls"] == 2


class TestCompiledStepProfiling:
    def _build_trainer(self, dataset, compile_flag: bool):
        from repro.align import AlignedRecommender
        from repro.models import LightGCN
        from repro.train import Trainer, TrainingConfig

        backbone = LightGCN(dataset, embedding_dim=8, num_layers=1, seed=0)
        model = AlignedRecommender(backbone, None)
        return Trainer(
            model, TrainingConfig(epochs=1, batch_size=256, seed=0, compile=compile_flag)
        )

    def test_profiled_replay_matches_unprofiled(self, tiny_dataset):
        import numpy as np

        plain = self._build_trainer(tiny_dataset, compile_flag=True).train_epoch()
        profiled_trainer = self._build_trainer(tiny_dataset, compile_flag=True)
        assert profiled_trainer.compiled_step is not None
        profiler = profiled_trainer.enable_profiling()
        profiled = profiled_trainer.train_epoch()
        assert np.isclose(plain, profiled, rtol=1e-6)
        # The replay credited per-op keys plus the trainer-side sections.
        assert any(key.endswith(".fwd") for key in profiler.seconds)
        assert any(key.endswith(".bwd") for key in profiler.seconds)
        assert "optimizer.step" in profiler.seconds
        assert "sampler.next" in profiler.seconds

    def test_profiled_darec_epoch_keeps_every_key(self, tiny_dataset, tiny_semantic):
        from repro.align import AlignedRecommender, DaRec, DaRecConfig
        from repro.models import LightGCN
        from repro.train import Trainer, TrainingConfig

        def build():
            backbone = LightGCN(tiny_dataset, embedding_dim=8, num_layers=1, seed=0)
            alignment = DaRec(backbone, tiny_semantic, DaRecConfig(sample_size=32, num_centers=3))
            model = AlignedRecommender(backbone, alignment, trade_off=0.1)
            return Trainer(model, TrainingConfig(epochs=1, batch_size=256, seed=0))

        plain = build().train_epoch()
        trainer = build()
        profiler = trainer.enable_profiling()
        # Profiling wraps the same thunks, so the numbers do not move at all.
        assert trainer.train_epoch() == plain
        for key in (
            "sampler.next", "step.inputs", "optimizer.step", "trace",
            "replay.bind", "replay.seed", "replay.publish", "host.fwd", "matmul.bwd",
        ):
            assert key in profiler.seconds, key

    def test_eager_fallback_is_profiled_too(self, tiny_dataset):
        trainer = self._build_trainer(tiny_dataset, compile_flag=False)
        profiler = trainer.enable_profiling()
        trainer.train_epoch()
        assert "eager.forward" in profiler.seconds
        assert "eager.backward" in profiler.seconds
        assert "optimizer.step" in profiler.seconds

    def test_enable_profiling_reuses_attached_profiler(self, tiny_dataset):
        trainer = self._build_trainer(tiny_dataset, compile_flag=True)
        first = trainer.enable_profiling()
        second = trainer.enable_profiling()
        assert first is second
        assert trainer.compiled_step.profiler is first
