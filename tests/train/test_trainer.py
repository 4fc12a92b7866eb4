"""Training loop: configuration, fitting, evaluation, early stopping wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import AlignedRecommender, DaRec, DaRecConfig, RLMRecContrastive
from repro.models import BPRMF, LightGCN
from repro.train import Trainer, TrainingConfig, train_recommender


class TestTrainingConfig:
    def test_defaults_valid(self):
        config = TrainingConfig()
        assert config.trade_off == pytest.approx(0.1)
        assert config.learning_rate == pytest.approx(1e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"trade_off": -0.5},
            {"eval_every": -1},
            {"early_stopping_patience": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestTrainer:
    def test_fit_records_one_loss_per_epoch(self, tiny_dataset):
        backbone = BPRMF(tiny_dataset, embedding_dim=8, seed=0)
        model = AlignedRecommender(backbone, None)
        trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=256, learning_rate=0.01))
        history = trainer.fit()
        assert history.num_epochs == 3
        assert all(np.isfinite(loss) for loss in history.epoch_losses)

    def test_training_improves_over_random_scores(self, tiny_dataset):
        backbone = LightGCN(tiny_dataset, embedding_dim=16, num_layers=2, seed=0)
        model = AlignedRecommender(backbone, None)
        trainer = Trainer(model, TrainingConfig(epochs=8, batch_size=256, learning_rate=0.01))
        before = trainer.evaluate(split="test").metrics["recall@20"]
        trainer.fit()
        after = trainer.evaluate(split="test").metrics["recall@20"]
        assert after >= before

    def test_loss_decreases(self, tiny_dataset):
        backbone = LightGCN(tiny_dataset, embedding_dim=16, num_layers=2, seed=0)
        model = AlignedRecommender(backbone, None)
        trainer = Trainer(model, TrainingConfig(epochs=6, batch_size=256, learning_rate=0.01))
        history = trainer.fit()
        assert history.final_loss < history.epoch_losses[0]

    def test_validation_recorded_when_eval_every_set(self, tiny_dataset):
        backbone = BPRMF(tiny_dataset, embedding_dim=8, seed=0)
        model = AlignedRecommender(backbone, None)
        trainer = Trainer(model, TrainingConfig(epochs=4, eval_every=2, batch_size=256))
        history = trainer.fit()
        assert len(history.validation) == 2
        assert "recall@20" in history.validation[0]

    def test_early_stopping_halts_training(self, tiny_dataset):
        backbone = BPRMF(tiny_dataset, embedding_dim=8, seed=0)
        model = AlignedRecommender(backbone, None)
        config = TrainingConfig(
            epochs=30,
            batch_size=256,
            learning_rate=1e-6,  # effectively frozen → metric never improves
            eval_every=1,
            early_stopping_patience=2,
        )
        history = Trainer(model, config).fit()
        assert history.stopped_early
        assert history.num_epochs < 30

    def test_unknown_early_stopping_metric_raises(self, tiny_dataset):
        backbone = BPRMF(tiny_dataset, embedding_dim=8, seed=0)
        model = AlignedRecommender(backbone, None)
        config = TrainingConfig(
            epochs=2, eval_every=1, early_stopping_patience=1, early_stopping_metric="auc@20"
        )
        with pytest.raises(KeyError):
            Trainer(model, config).fit()

    def test_history_final_loss_requires_epochs(self):
        from repro.train import TrainingHistory

        with pytest.raises(ValueError):
            TrainingHistory().final_loss


class TestTrainRecommender:
    def test_plain_backbone(self, tiny_dataset):
        backbone = BPRMF(tiny_dataset, embedding_dim=8, seed=0)
        model, history = train_recommender(backbone, None, TrainingConfig(epochs=2, batch_size=512))
        assert history.num_epochs == 2
        assert model.score_all().shape == (tiny_dataset.num_users, tiny_dataset.num_items)

    def test_with_darec_alignment(self, tiny_dataset, tiny_semantic):
        backbone = LightGCN(tiny_dataset, embedding_dim=16, seed=0)
        alignment = DaRec(backbone, tiny_semantic, DaRecConfig(sample_size=48, num_centers=3))
        model, history = train_recommender(backbone, alignment, TrainingConfig(epochs=2, batch_size=512))
        assert np.isfinite(history.final_loss)

    def test_with_rlmrec_alignment(self, tiny_dataset, tiny_semantic):
        backbone = LightGCN(tiny_dataset, embedding_dim=16, seed=0)
        alignment = RLMRecContrastive(backbone, tiny_semantic, seed=0)
        model, history = train_recommender(backbone, alignment, TrainingConfig(epochs=2, batch_size=512))
        assert history.num_epochs == 2


class TestCompiledTraining:
    """The compiled trace/replay path reproduces eager training bitwise."""

    def _histories(self, build_model, epochs=3):
        eager_model = build_model()
        replay_model = build_model()
        eager_trainer = Trainer(eager_model, TrainingConfig(epochs=epochs, batch_size=256, compile=False))
        replay_trainer = Trainer(replay_model, TrainingConfig(epochs=epochs, batch_size=256, compile=True))
        return eager_trainer, replay_trainer

    def test_plain_backbone_bit_identical(self, tiny_dataset):
        def build():
            backbone = LightGCN(tiny_dataset, embedding_dim=16, num_layers=2, seed=0)
            return AlignedRecommender(backbone, None)

        eager_trainer, replay_trainer = self._histories(build)
        assert replay_trainer.compiled_step is not None
        eager_history = eager_trainer.fit()
        replay_history = replay_trainer.fit()
        assert eager_history.epoch_losses == replay_history.epoch_losses
        for pa, pb in zip(eager_trainer.model.parameters(), replay_trainer.model.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert replay_trainer.compiled_step.stats.traces >= 1
        assert replay_trainer.compiled_step.stats.fallbacks == 0

    @pytest.mark.parametrize(
        "darec_config",
        [
            DaRecConfig(sample_size=48, num_centers=3),
            DaRecConfig(sample_size=48, num_centers=3).without("local"),
            DaRecConfig(sample_size=48, num_centers=3, matching="identity"),
            DaRecConfig(sample_size=48, num_centers=3, uniformity_target="all"),
        ],
        ids=["default", "without-local", "identity-matching", "uniformity-all"],
    )
    def test_darec_alignment_bit_identical(self, tiny_dataset, tiny_semantic, darec_config):
        def build():
            backbone = LightGCN(tiny_dataset, embedding_dim=16, seed=0)
            alignment = DaRec(backbone, tiny_semantic, darec_config)
            return AlignedRecommender(backbone, alignment, trade_off=0.1)

        eager_trainer, replay_trainer = self._histories(build)
        assert replay_trainer.compiled_step is not None
        eager_history = eager_trainer.fit()
        replay_history = replay_trainer.fit()
        assert eager_history.epoch_losses == replay_history.epoch_losses
        for pa, pb in zip(eager_trainer.model.parameters(), replay_trainer.model.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_untraceable_backbone_keeps_eager_path(self, tiny_dataset):
        from repro.models import SGL

        backbone = SGL(tiny_dataset, embedding_dim=16, seed=0)
        model = AlignedRecommender(backbone, None)
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=256, compile=True))
        assert trainer.compiled_step is None  # trace_static=False opts out
        history = trainer.fit()
        assert np.isfinite(history.final_loss)

    def test_rlmrec_alignment_keeps_eager_path(self, tiny_dataset, tiny_semantic):
        backbone = LightGCN(tiny_dataset, embedding_dim=16, seed=0)
        alignment = RLMRecContrastive(backbone, tiny_semantic, seed=0)
        model = AlignedRecommender(backbone, alignment)
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=256, compile=True))
        assert trainer.compiled_step is None  # no pure-step split implemented
        assert np.isfinite(trainer.fit().final_loss)

    def test_compile_flag_off_disables_compilation(self, tiny_dataset):
        backbone = BPRMF(tiny_dataset, embedding_dim=8, seed=0)
        model = AlignedRecommender(backbone, None)
        trainer = Trainer(model, TrainingConfig(epochs=1, compile=False))
        assert trainer.compiled_step is None
