"""Synthetic streaming-workload simulation: fold-in vs. full retrain.

Shared by ``repro stream-simulate``, the streaming benchmark and the example.
The simulation builds the cold-start scenario the offline paper pipeline never
covers:

1. generate a synthetic benchmark and **hold out** the last fraction of its
   users — the "streaming" users the base snapshot has never seen;
2. build the *base* snapshot without them.  In the default ``"trained"`` mode
   a real backbone (BPR-MF unless configured otherwise) is trained on the
   retained users' interactions and its user table truncated, so held-out
   users are genuinely absent; the fast ``"factors"`` mode skips training and
   uses the generator's ground-truth latent factors instead (the model-free
   corpus construction of the serving benchmark — useful for throughput
   measurements where training time would drown the signal);
3. replay the held-out users' training interactions as timestamped events
   through a :class:`~repro.stream.updater.StreamingUpdater` in micro-batch
   chunks, hot-swapping a delta snapshot per chunk;
4. compare recall@K of the folded-in users against a **full-retrain
   reference** — the same backbone retrained on the complete interaction set
   (``"trained"`` mode) or the oracle factors (``"factors"`` mode).

The headline number is ``recall_ratio`` (fold-in recall / retrain recall):
how much of a full retrain's quality the incremental fold-in preserves
without retraining anything.  Note the ``"factors"`` reference is an oracle —
the exact vectors that *generated* the test interactions — so ratios in that
mode are a pessimistic lower bound no real retrain could reach.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data.interactions import InteractionDataset
from ..data.synthetic import load_benchmark
from ..eval.metrics import mean_recall
from ..serve.retrieval import PAD_INDEX
from ..serve.service import RecommendationService
from ..serve.snapshot import EmbeddingSnapshot, build_snapshot
from .drift import DriftMetrics, RefreshSignal
from .events import EventLog
from .foldin import FoldInConfig
from .updater import StreamingUpdater, UpdateReport, live_popularity

__all__ = ["StreamSimulationConfig", "StreamSimulationResult", "simulate_stream"]


@dataclass(frozen=True)
class StreamSimulationConfig:
    """Knobs of the synthetic streaming simulation."""

    dataset: str = "amazon-book"
    scale: float = 0.35
    holdout_fraction: float = 0.25
    max_events: int | None = None
    chunk_size: int = 256
    k: int = 20
    seed: int = 0
    fold_in: FoldInConfig = field(default_factory=FoldInConfig)
    min_interactions: int = 3
    mode: str = "trained"
    backbone: str = "bpr-mf"
    epochs: int = 4
    embedding_dim: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.mode not in {"trained", "factors"}:
            raise ValueError("mode must be 'trained' or 'factors'")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")


@dataclass(frozen=True)
class StreamSimulationResult:
    """Outcome of one :func:`simulate_stream` run."""

    events_replayed: int
    apply_seconds: float
    events_per_second: float
    users_folded_in: int
    new_users: int
    snapshot_generations: int
    foldin_recall: float
    retrain_recall: float
    recall_ratio: float
    evaluated_users: int
    drift: DriftMetrics
    refresh_signal: RefreshSignal | None
    reports: tuple[UpdateReport, ...] = field(repr=False, default=())

    def as_row(self) -> dict:
        return {
            "events": self.events_replayed,
            "events/sec": round(self.events_per_second, 1),
            "folded users": self.users_folded_in,
            "new users": self.new_users,
            "generations": self.snapshot_generations,
            "recall(fold-in)": round(self.foldin_recall, 4),
            "recall(retrain)": round(self.retrain_recall, 4),
            "ratio": round(self.recall_ratio, 3),
            "drift KL": round(self.drift.popularity_kl, 3),
            "cold ratio": round(self.drift.cold_user_ratio, 3),
            "refresh": ",".join(self.refresh_signal.reasons) if self.refresh_signal else "-",
        }


def _split_pairs(pairs: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition an ``(n, 2)`` pair array at user id ``cutoff``."""
    return pairs[pairs[:, 0] < cutoff], pairs[pairs[:, 0] >= cutoff]


def _trained_embeddings(
    dataset: InteractionDataset, config: StreamSimulationConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Train the configured backbone and return its propagated tables."""
    from ..align.base import AlignedRecommender
    from ..experiments.common import ExperimentScale, make_backbone
    from ..nn import no_grad
    from ..train import Trainer, TrainingConfig

    scale = ExperimentScale(
        embedding_dim=config.embedding_dim, epochs=config.epochs, seed=config.seed
    )
    model = AlignedRecommender(make_backbone(config.backbone, dataset, scale), None)
    trainer = Trainer(
        model, TrainingConfig(epochs=config.epochs, seed=config.seed, eval_ks=(config.k,))
    )
    trainer.fit()
    with no_grad():
        users, items = model.propagate()
    return np.array(users.data, copy=True), np.array(items.data, copy=True)


def _build_corpora(
    dataset: InteractionDataset, cutoff: int, config: StreamSimulationConfig
) -> tuple[EmbeddingSnapshot, EmbeddingSnapshot]:
    """(base snapshot without held-out users, full-retrain reference snapshot)."""
    retained_train, _ = _split_pairs(dataset.train, cutoff)
    if config.mode == "factors":
        base_users = dataset.metadata["user_factors"]
        base_items = dataset.metadata["item_factors"]
        full_users, full_items = base_users, base_items
    else:
        base_dataset = InteractionDataset(
            name=dataset.name,
            num_users=dataset.num_users,
            num_items=dataset.num_items,
            train=retained_train,
            valid=_split_pairs(dataset.valid, cutoff)[0],
            test=_split_pairs(dataset.test, cutoff)[0],
            metadata=dataset.metadata,
        )
        base_users, base_items = _trained_embeddings(base_dataset, config)
        full_users, full_items = _trained_embeddings(dataset, config)
    base = build_snapshot(
        base_users[:cutoff],
        base_items,
        train_pairs=retained_train,
        model_name=f"{config.mode}-base",
        dataset_name=dataset.name,
    )
    retrain = build_snapshot(
        full_users,
        full_items,
        train_pairs=dataset.train,
        model_name=f"{config.mode}-retrain",
        dataset_name=dataset.name,
    )
    return base, retrain


def _mean_recall(
    service: RecommendationService, users, positives: dict[int, np.ndarray], k: int
) -> float:
    evaluable = [int(user) for user in users if len(positives.get(int(user), ()))]
    if not evaluable:
        return 0.0
    # One micro-batched call: all warm users share a single index search.
    recommendations = service.recommend_many(evaluable, k=k)
    top = np.full((len(evaluable), k), PAD_INDEX, dtype=np.int64)
    for row, recommendation in enumerate(recommendations):
        top[row, : len(recommendation)] = recommendation.items
    return mean_recall(top, [positives[user] for user in evaluable], k)


def simulate_stream(config: StreamSimulationConfig | None = None) -> StreamSimulationResult:
    """Run the cold-start streaming scenario; see the module docstring."""
    config = config or StreamSimulationConfig()
    dataset = load_benchmark(config.dataset, scale=config.scale, seed=config.seed)
    cutoff = dataset.num_users - max(1, int(round(dataset.num_users * config.holdout_fraction)))
    base, retrain = _build_corpora(dataset, cutoff, config)
    _, held_train = _split_pairs(dataset.train, cutoff)

    # Interleave the held-out users' interactions into one arrival order.
    rng = np.random.default_rng(config.seed)
    events = held_train[rng.permutation(len(held_train))]
    if config.max_events is not None:
        events = events[: config.max_events]

    log = EventLog()
    service = RecommendationService(base, default_k=config.k)
    updater = StreamingUpdater(
        service,
        log,
        fold_in=config.fold_in,
        batch_size=config.chunk_size,
        min_interactions=config.min_interactions,
    )
    service.set_popularity_provider(live_popularity(base, log))

    reports: list[UpdateReport] = []
    apply_seconds = 0.0
    for start in range(0, len(events), config.chunk_size):
        chunk = events[start : start + config.chunk_size]
        timestamps = np.arange(start, start + len(chunk), dtype=np.float64)
        log.extend(chunk[:, 0], chunk[:, 1], timestamps=timestamps)
        tick = time.perf_counter()
        reports.append(updater.apply())
        apply_seconds += time.perf_counter() - tick

    folded = {result.user_id for report in reports for result in report.fold_ins}
    test_positives = dataset.user_positives("test")
    held_users = np.array(sorted(folded), dtype=np.int64)

    reference = RecommendationService(retrain, default_k=config.k)
    foldin_recall = _mean_recall(service, held_users, test_positives, config.k)
    retrain_recall = _mean_recall(reference, held_users, test_positives, config.k)

    return StreamSimulationResult(
        events_replayed=len(events),
        apply_seconds=apply_seconds,
        events_per_second=len(events) / apply_seconds if apply_seconds > 0 else float("inf"),
        users_folded_in=len(folded),
        new_users=sum(report.new_users for report in reports),
        snapshot_generations=service.snapshot.delta_generation,
        foldin_recall=foldin_recall,
        retrain_recall=retrain_recall,
        recall_ratio=foldin_recall / retrain_recall if retrain_recall > 0 else float("inf"),
        evaluated_users=int(sum(1 for user in held_users if len(test_positives.get(int(user), ())))),
        drift=updater.monitor.metrics(),
        refresh_signal=updater.monitor.check(),
        reports=tuple(reports),
    )
