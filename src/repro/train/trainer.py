"""Joint training loop for (backbone, alignment) pairs — paper Algorithm 1."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..align.base import AlignedRecommender, AlignmentModule
from ..data.interactions import InteractionDataset
from ..data.sampling import BprSampler
from ..eval.protocol import EvaluationResult, RankingEvaluator
from ..models.base import BaseRecommender
from ..nn import Adam, CompiledStep, compile as nn_compile
from ..obs.profile import OpProfiler, timed_section
from .config import TrainingConfig
from .early_stopping import EarlyStopping

__all__ = ["TrainingHistory", "Trainer", "train_recommender"]


@dataclass
class TrainingHistory:
    """Per-epoch loss curve plus optional validation metrics."""

    epoch_losses: list[float] = field(default_factory=list)
    validation: list[dict[str, float]] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = -1

    @property
    def num_epochs(self) -> int:
        return len(self.epoch_losses)

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        return self.epoch_losses[-1]


class Trainer:
    """Optimises an :class:`AlignedRecommender` with mini-batch Adam."""

    def __init__(
        self,
        model: AlignedRecommender,
        config: TrainingConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or TrainingConfig()
        self.dataset: InteractionDataset = model.dataset
        self.sampler = BprSampler(self.dataset, batch_size=self.config.batch_size, seed=self.config.seed)
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.evaluator = RankingEvaluator(self.dataset, ks=self.config.eval_ks)
        self.compiled_step: CompiledStep | None = None
        self._step_params = list(self.optimizer.parameters)
        self.profiler: OpProfiler | None = None
        if self.config.compile and self.model.supports_compiled_step():
            self.compiled_step = nn_compile(self.model.build_step_fn())

    def enable_profiling(self, profiler: OpProfiler | None = None) -> OpProfiler:
        """Attach a per-op profiler to the training loop; returns it.

        Compiled replays record each primitive under ``<op>.fwd``/``<op>.bwd``
        (via :meth:`CompiledStep.enable_profiling`); the trainer adds the work
        the tape cannot see — ``sampler.next``, ``step.inputs`` (input
        staging) and ``optimizer.step`` — so the profile's summed time
        accounts for nearly all of an epoch's wall clock.
        """
        if profiler is None:
            profiler = self.profiler if self.profiler is not None else OpProfiler()
        self.profiler = profiler
        if self.compiled_step is not None:
            self.compiled_step.enable_profiling(profiler)
        return profiler

    def train_epoch(self) -> float:
        """One pass over the training interactions; returns the mean batch loss.

        With a profiler attached, each stage of a step is timed into it; the
        sampler is iterated by hand so batch production is billed on its own.
        """
        self.model.train()
        self.model.on_epoch_start()
        profiler = self.profiler
        losses: list[float] = []
        batches = iter(self.sampler.epoch())
        while True:
            with timed_section(profiler, "sampler.next"):
                batch = next(batches, None)
            if batch is None:
                break
            if self.compiled_step is not None:
                with timed_section(profiler, "step.inputs"):
                    inputs = self.model.make_step_inputs(batch)
                losses.append(self.compiled_step(self._step_params, inputs))
            else:
                with timed_section(profiler, "eager.forward"):
                    self.optimizer.zero_grad()
                    loss = self.model.loss(batch)
                with timed_section(profiler, "eager.backward"):
                    loss.backward()
                losses.append(loss.item())
            with timed_section(profiler, "optimizer.step"):
                self.optimizer.step()
        return float(np.mean(losses)) if losses else 0.0

    def fit(self) -> TrainingHistory:
        """Run the full optimisation, optionally with validation-based early stopping."""
        history = TrainingHistory()
        stopper = (
            EarlyStopping(self.config.early_stopping_patience)
            if self.config.early_stopping_patience > 0
            else None
        )
        for epoch in range(1, self.config.epochs + 1):
            mean_loss = self.train_epoch()
            history.epoch_losses.append(mean_loss)
            if self.config.verbose:
                print(f"[{self.model.name}] epoch {epoch:3d}  loss={mean_loss:.4f}")
            run_eval = self.config.eval_every and epoch % self.config.eval_every == 0
            if run_eval:
                result = self.evaluate(split="valid")
                history.validation.append(result.metrics)
                if stopper is not None:
                    metric = result.metrics.get(self.config.early_stopping_metric)
                    if metric is None:
                        raise KeyError(
                            f"early stopping metric '{self.config.early_stopping_metric}' not computed"
                        )
                    if stopper.update(metric, epoch):
                        history.stopped_early = True
                        history.best_epoch = stopper.best_step
                        break
        if stopper is not None and not history.stopped_early:
            history.best_epoch = stopper.best_step
        return history

    def evaluate(self, split: str = "test") -> EvaluationResult:
        self.model.eval()
        return self.evaluator.evaluate(self.model, split=split)


def train_recommender(
    backbone: BaseRecommender,
    alignment: AlignmentModule | None = None,
    config: TrainingConfig | None = None,
) -> tuple[AlignedRecommender, TrainingHistory]:
    """Convenience one-liner: wrap, train and return the composite model."""
    config = config or TrainingConfig()
    model = AlignedRecommender(backbone, alignment, trade_off=config.trade_off)
    trainer = Trainer(model, config)
    history = trainer.fit()
    return model, history
