"""The system's three user-facing paths, driven from one process.

Every run executes the whole lifecycle, so every end-to-end metric is measured
on every workload:

* **retrain** — LightGCN + DaRec, compiled, at the nn-compile bench shape
  (yelp x0.5, d=32): a fixed number of epochs (closed loop), ``evaluate``,
  then publish (``create_snapshot`` -> ``save_snapshot`` ->
  ``load_snapshot(verify=True)`` -> ``IVFIndex`` build).  Each cycle trains a
  fresh, independently seeded model.
* **serve** — the amazon-book ground-truth-factor snapshot at dataset scale 8
  (the serving bench's corpus) behind the default self-tuning ``IVFIndex``
  and a default ``RecommendationService`` with k=20.  Zipf(1.1) traffic over
  known users plus ~5% unknown ids arrives open-loop (Poisson, fixed rate)
  through ``submit``/``flush``; a closed-loop capacity segment on the same
  traffic follows.
* **ingest** — a second service over the same snapshot with a durable
  ``EventLog`` and a default ``StreamingUpdater``: open-loop
  ``record_interaction`` events (~30% brand-new users, the rest Zipf warm
  users) beside open-loop reads; ``apply()`` runs whenever events are pending
  and nothing is due.

The machine's speed drifts within seconds, so a run is cut into rounds that
each run a slice of every path: every metric then samples the whole run.
Every time is scaled to a reference machine speed by the :class:`Speedometer`
readings around the section that measured it.  Serve-segment latency
percentiles are medians over windows of ~350 reads, and a cost the run repeats
(setup, epoch, retrain cycle, capacity slice) is reported as the median of
its repeats.

The two workloads differ in the serve segment: on ``serve-zipf`` it only
reads, so the result cache does real work; on ``ingest-mixed`` events arrive
beside its reads, so every ``apply()`` swaps the snapshot and clears the
cache under the read load.

The program runs with its defaults: metrics registry off, WAL ``fsync=True``,
``load_snapshot(verify=True)``.  All inputs are generated here from the seed.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.align.base import AlignedRecommender
from repro.data import load_benchmark
from repro.experiments import ExperimentScale, build_dataset_and_semantics, build_variant, make_backbone
from repro.serve import index as index_mod
from repro.serve import snapshot as snapshot_mod
from repro.serve.retrieval import PAD_INDEX, exact_topk, gather_csr_rows
from repro.serve.service import RecommendationService
from repro.stream import EventLog, StreamingUpdater
from repro.train import Trainer, TrainingConfig

perf = time.perf_counter

K = 20
#: Serving corpus: the serving bench's ground-truth-factor snapshot.
SERVE_DATASET, SERVE_SCALE = "amazon-book", 8.0
ZIPF_EXPONENT = 1.1
UNKNOWN_FRACTION = 0.05
#: Unknown ids start here, far past any id the ingest path creates.
UNKNOWN_BASE = 10_000_000
#: Open-loop read rate of the serve segment, far below the knee (~3k q/s on
#: a 2-CPU box, where one IVF search costs 2-5 ms almost regardless of batch).
#: Latency near saturation swings with the machine's speed far more than the
#: work does, and at this rate few cache hits queue behind a search.
READ_RATE = 400.0
#: Events beside the serve segment's reads on ``ingest-mixed``; every apply
#: clears the result cache.
SERVE_EVENT_RATE = 4.0
#: Ingest traffic: events, and the reads beside them, ~30% busy.
EVENT_RATE = 40.0
INGEST_READ_RATE = 100.0
NEW_USER_FRACTION = 0.3
#: Open-loop slices per serve or ingest segment.  Each slice is scaled by the
#: Speedometer readings around it; two consecutive serve slices (~350 reads)
#: form one window for the latency percentiles.
SEGMENT_SLICES = 4
#: Training: the nn-compile bench shape.
TRAIN_DATASET = "yelp"
TRAIN_SCALE = ExperimentScale(
    dataset_scale=0.5,
    embedding_dim=32,
    llm_dim=32,
    epochs=2,
    batch_size=1024,
    darec_sample_size=64,
    darec_shared_dim=16,
)
EPOCHS_PER_CYCLE = 10
#: Rounds per run; each retrains one cycle.
ROUNDS = 10
#: Share of ``--seconds`` each serving segment gets, per round.
SERVE_SHARE, CAPACITY_SHARE, INGEST_SHARE = 0.35, 0.15, 0.35
#: Closed-loop slices per round.  The machine's speed flips within a second,
#: so each slice is scaled by the Speedometer readings right around it.
CAPACITY_SLICES = 5
#: Independent setups per run; ``setup_s`` is taken over them.
SETUP_REPEATS = 5
#: The reference kernel's time on the machine every time is scaled to, and
#: how many back-to-back kernel runs one reading takes the best of.
REFERENCE_MS = 3.0
REFERENCE_REPEATS = 5
#: Users whose first search self-tunes ``n_probe`` during setup.
TUNE_USERS = 128

WORKLOADS = {
    "serve-zipf": "Zipf(1.1) reads with 5% unknown ids and no writes while serving, so the cache and "
    "cold-start fallback do real work; ingest and retrain run beside it",
    "ingest-mixed": "fsynced events with 30% new users arrive while serving too, so every apply swaps "
    "the snapshot and clears the cache under read load",
}


@dataclass(frozen=True)
class Plan:
    """How much of each path one round executes."""

    rounds: int
    serve_seconds: float
    capacity_seconds: float
    ingest_seconds: float
    serve_writes: bool


def plan_for(workload: str, seconds: float) -> Plan:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    per_round = seconds / ROUNDS
    return Plan(
        rounds=ROUNDS,
        serve_seconds=SERVE_SHARE * per_round,
        capacity_seconds=CAPACITY_SHARE * per_round,
        ingest_seconds=INGEST_SHARE * per_round,
        serve_writes=workload == "ingest-mixed",
    )


# --------------------------------------------------------------------------- #
# Bookkeeping
# --------------------------------------------------------------------------- #
class Clock:
    """Busy time of the measured sections; the ledger records inside traced ones.

    Waiting for the next arrival is idle, not busy.  The wait spins: on a
    virtual machine a sleeping thread wakes up to several milliseconds late
    (p99), which would land in the latency of whatever arrived meanwhile.
    """

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        self.traced = False
        self.busy = 0.0
        self.traced_busy = 0.0

    @contextmanager
    def measure(self):
        recording = self.ledger is not None and self.traced
        if recording:
            self.ledger.recording = True
        start = perf()
        try:
            yield
        finally:
            elapsed = perf() - start
            self.busy += elapsed
            if recording:
                self.traced_busy += elapsed
                self.ledger.recording = False

    def wait_until(self, deadline: float) -> None:
        start = perf()
        while perf() < deadline:
            pass
        idle = perf() - start
        self.busy -= idle
        if self.ledger is not None and self.ledger.recording:
            self.traced_busy -= idle


class Speedometer:
    """Times a fixed kernel of interpreter and NumPy work between measured sections.

    On a shared 2-vCPU virtual machine the speed flips by up to a third
    within a second and can stay low for a whole run.  It shows in CPU time
    as much as in wall time (it is not stolen time), and the kernel slows
    with the program.  The kernel's time at both edges of a section says how
    fast the machine ran during it, and :meth:`mark` returns the factor that
    turns a time measured in that section into the time on a machine where
    the kernel takes :data:`REFERENCE_MS`.  The kernel is benchmark code, so
    a change to the program cannot move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # An IVF-like probe of 32 cells, a training-sized product and a
        # dictionary tally, in roughly equal parts.
        self.queries = rng.standard_normal((64, 32))
        self.cells = [rng.standard_normal((48, 32)) for _ in range(32)]
        self.batch = rng.standard_normal((256, 32))
        self.table = rng.standard_normal((32, 1024))
        self.keys = rng.integers(0, 4096, size=3000).tolist()
        self.readings: list[float] = []

    def _kernel(self) -> None:
        for cell in self.cells:
            np.argpartition(self.queries @ cell.T, -K, axis=1)[:, -K:]
        (self.batch @ self.table).sum()
        tally: dict[int, int] = {}
        for key in self.keys:
            tally[key] = tally.get(key, 0) + 1

    def mark(self) -> float:
        """Read the kernel; return the factor for the section since the last reading."""
        best = math.inf
        for _ in range(REFERENCE_REPEATS):
            start = perf()
            self._kernel()
            best = min(best, perf() - start)
        self.readings.append(best * 1000.0)
        return REFERENCE_MS / statistics.fmean(self.readings[-2:])


@dataclass
class Phase:
    """Operations attempted and failed in one phase, summed over rounds."""

    name: str
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc(limit=4))

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    phases: dict[str, Phase] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase(name))

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1000.0


def _chunked_ms(latency: np.ndarray, chunk: np.ndarray, q: float) -> float:
    """Median over chunks of each chunk's ``q``-th latency percentile.

    A neighbour's burst on a shared machine spoils the chunks it lands in,
    not the median over them.
    """
    values = [_ms(latency[chunk == c], q) for c in np.unique(chunk) if (chunk == c).sum() >= 100]
    return float(statistics.median(values)) if values else _pooled_ms(latency, q)


def _pooled_ms(values: np.ndarray, q: float) -> float:
    return _ms(values[~np.isnan(values)], q)


# --------------------------------------------------------------------------- #
# Inputs, all generated from the seed before anything is timed
# --------------------------------------------------------------------------- #
class Traffic:
    """Zipf(1.1) over known users, plus a share of ids no snapshot knows.

    Which users are popular is part of the workload, like the corpus: the
    rank order is fixed, and the seed draws the traffic from it.
    """

    def __init__(self, num_users: int) -> None:
        weights = np.arange(1, num_users + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.probabilities = weights / weights.sum()
        self.by_rank = np.random.default_rng(0).permutation(num_users)
        self.num_users = num_users

    def known(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.by_rank[rng.choice(self.num_users, size=n, p=self.probabilities)]

    def reads(self, rng: np.random.Generator, n: int) -> np.ndarray:
        users = self.known(rng, n)
        unknown = rng.random(n) < UNKNOWN_FRACTION
        users[unknown] = UNKNOWN_BASE + rng.integers(0, 1_000_000, size=int(unknown.sum()))
        return users


def poisson_arrivals(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    if rate <= 0 or seconds <= 0:
        return np.empty(0)
    n = int(rate * seconds * 1.2) + 64
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return due[due < seconds]


@dataclass
class Arrivals:
    """One segment's open-loop traffic; due times in seconds from its start."""

    read_due: np.ndarray
    read_users: np.ndarray
    event_due: np.ndarray
    event_users: np.ndarray
    event_items: np.ndarray


class _ArrivalSource:
    def __init__(self, corpus, traffic: Traffic) -> None:
        self.traffic = traffic
        self.next_new_user = corpus.num_users
        popularity = np.bincount(corpus.train[:, 1], minlength=corpus.num_items) + 1.0
        self.item_probabilities = popularity / popularity.sum()

    def arrivals(self, rng, read_rate: float, event_rate: float, seconds: float) -> Arrivals:
        read_due = poisson_arrivals(rng, read_rate, seconds)
        read_users = self.traffic.reads(rng, len(read_due))
        event_due = poisson_arrivals(rng, event_rate, seconds)
        event_users = self.traffic.known(rng, len(event_due))
        new = rng.random(len(event_due)) < NEW_USER_FRACTION
        # Brand-new users get dense ids just past the table, as sign-ups would.
        count = int(new.sum())
        event_users[new] = self.next_new_user + np.arange(count)
        self.next_new_user += count
        event_items = rng.choice(len(self.item_probabilities), size=len(event_due), p=self.item_probabilities)
        return Arrivals(read_due, read_users, event_due, event_users, event_items)


@dataclass
class Round:
    serve: list[Arrivals]
    #: Each closed-loop slice's (users, events).
    capacity: list
    ingest: list[Arrivals]
    #: One retrain cycle's (dataset, semantic embeddings, scale).
    train: tuple


@dataclass
class Inputs:
    corpus: object
    tune_users: np.ndarray
    rounds: list[Round]


def make_inputs(seed: int, plan: Plan) -> Inputs:
    corpus = load_benchmark(SERVE_DATASET, scale=SERVE_SCALE)
    traffic = Traffic(corpus.num_users)
    source = _ArrivalSource(corpus, traffic)
    # The serving bench's tuning draw: the first users by id, whatever the
    # seed, so n_probe (and the cost of every search) is the same on every run.
    tune_users = np.unique(corpus.train[:, 0])[:TUNE_USERS]
    serve_events = SERVE_EVENT_RATE if plan.serve_writes else 0.0
    rounds = []
    for r in range(plan.rounds):
        rng = _rng(seed, 1, r)
        serve = [source.arrivals(rng, READ_RATE, serve_events, plan.serve_seconds / SEGMENT_SLICES)
                 for _ in range(SEGMENT_SLICES)]
        # Closed-loop traffic for more than the fastest capacity seen (~45k q/s).
        slice_seconds = plan.capacity_seconds / CAPACITY_SLICES
        capacity = [
            (traffic.reads(rng, int(60_000 * slice_seconds) + 64),
             source.arrivals(rng, 0.0, serve_events, slice_seconds))
            for _ in range(CAPACITY_SLICES)
        ]
        ingest = [source.arrivals(rng, INGEST_READ_RATE, EVENT_RATE, plan.ingest_seconds / SEGMENT_SLICES)
                  for _ in range(SEGMENT_SLICES)]
        cycle_seed = int(np.random.SeedSequence([seed, 2, r]).generate_state(1)[0] % (1 << 31))
        scale = TRAIN_SCALE.smaller(seed=cycle_seed)
        train = (*build_dataset_and_semantics(TRAIN_DATASET, scale), scale)
        rounds.append(Round(serve, capacity, ingest, train))
    return Inputs(corpus, tune_users, rounds)


# --------------------------------------------------------------------------- #
# Setup
# --------------------------------------------------------------------------- #
@dataclass
class Stack:
    snapshot: object
    reader: RecommendationService
    writer: RecommendationService
    log: EventLog
    updater: StreamingUpdater
    wal_path: Path


def build_stack(inputs: Inputs, directory: Path) -> Stack:
    corpus = inputs.corpus
    snapshot = snapshot_mod.build_snapshot(
        corpus.metadata["user_factors"],
        corpus.metadata["item_factors"],
        train_pairs=corpus.train,
        model_name="ground-truth-factors",
        dataset_name=corpus.name,
    )
    index = index_mod.IVFIndex(snapshot.item_embeddings, seed=0)
    reader = RecommendationService(snapshot, index=index, default_k=K)
    # Self-tune n_probe now, as the service's first search would.
    reader.retriever.topk_for_users(inputs.tune_users, K)
    writer = RecommendationService(snapshot, index=index, default_k=K)
    wal_path = directory / "events.wal"
    log = EventLog.open(wal_path)
    return Stack(snapshot, reader, writer, log, StreamingUpdater(writer, log), wal_path)


# --------------------------------------------------------------------------- #
# Drivers
# --------------------------------------------------------------------------- #
@dataclass
class Samples:
    """Per-arrival outcomes pooled over the segments of one kind."""

    latency: list = field(default_factory=list)
    wait: list = field(default_factory=list)
    chunk: list = field(default_factory=list)
    users: list = field(default_factory=list)
    ack: list = field(default_factory=list)
    fresh: list = field(default_factory=list)
    #: Each segment's :class:`Speedometer` factor.
    factor: list = field(default_factory=list)
    busy_s: float = 0.0
    wall_s: float = 0.0

    def cat(self, name: str) -> np.ndarray:
        parts = getattr(self, name)
        return np.concatenate(parts) if parts else np.empty(0)

    def scaled(self, name: str) -> np.ndarray:
        """A per-arrival time, scaled by its segment's factor."""
        return np.concatenate([part * factor for part, factor in zip(getattr(self, name), self.factor)])


@dataclass
class Writes:
    """Where a segment's events go."""

    phase: Phase
    updater: StreamingUpdater
    tally: dict

    def pending(self) -> bool:
        return self.updater.pending() > 0 and not self.tally.get("apply_broken")

    def apply(self) -> tuple[int, int] | None:
        """One update cycle; returns the drained seq range, or None if it raised."""
        try:
            report = self.updater.apply()
        except Exception:
            # Retrying a failing apply forever would wedge the run; its
            # events stay unapplied and count as failed.
            self.phase.fail(0)
            self.tally["apply_broken"] = True
            return None
        self.tally["applies"] += 1
        self.tally["applied_events"] += report.events_applied
        self.tally["folded_users"] += report.users_folded_in
        return report.event_range

    def record(self, service, arrivals: Arrivals, i: int) -> bool:
        self.phase.attempted += 1
        try:
            service.record_interaction(
                int(arrivals.event_users[i]), int(arrivals.event_items[i]), timestamp=float(arrivals.event_due[i])
            )
        except Exception:
            self.phase.fail()
            return False
        return True


def _serve_batch(service, users, phase: Phase) -> list:
    phase.attempted += len(users)
    try:
        tickets = [service.submit(int(user)) for user in users]
        service.flush()
        return [ticket.result() for ticket in tickets]
    except Exception:
        phase.fail(len(users))
        return [None] * len(users)


def open_loop(clock: Clock, service, arrivals: Arrivals, samples: Samples, window: int,
              reads: Phase, writes: Writes | None = None) -> tuple[list, np.ndarray]:
    """Serve reads and record events as they fall due; apply when idle.

    Each arrival is timed from its due time, so a stall shows in the latency
    of everything queued behind it.  The segment ends when every arrival is
    served and every recorded event applied.  Returns each read's answer and
    the updater's ``applied_seq`` when it was answered.
    """
    read_due, event_due = arrivals.read_due, arrivals.event_due
    nr, ne = len(read_due), len(event_due)
    latency, wait = np.full(nr, np.nan), np.full(nr, np.nan)
    answers: list = [None] * nr
    applied_seq = np.zeros(nr, dtype=np.int64)
    ack, swapped = np.full(ne, np.nan), np.full(ne, np.nan)
    first_seq = writes.updater.applied_seq if writes is not None else 0
    batch = service.batch_size
    ri = ei = 0
    busy = clock.busy
    with clock.measure():
        origin = perf()
        while ri < nr or ei < ne or (writes is not None and writes.pending()):
            now = perf() - origin
            next_event = event_due[ei] if ei < ne else math.inf
            next_read = read_due[ri] if ri < nr else math.inf
            if next_event <= now and next_event <= next_read:
                if writes.record(service, arrivals, ei):
                    ack[ei] = perf() - origin - next_event
                ei += 1
            elif next_read <= now:
                stop = ri + int(np.searchsorted(read_due[ri:ri + batch], now, side="right"))
                started = perf() - origin
                answers[ri:stop] = _serve_batch(service, arrivals.read_users[ri:stop], reads)
                done = perf() - origin
                wait[ri:stop] = started - read_due[ri:stop]
                latency[ri:stop] = done - read_due[ri:stop]
                if writes is not None:
                    applied_seq[ri:stop] = writes.updater.applied_seq
                ri = stop
            elif writes is not None and writes.pending():
                drained = writes.apply()
                if drained is not None:
                    swapped[drained[0] - first_seq:drained[1] - first_seq] = perf() - origin
            else:
                clock.wait_until(origin + min(next_event, next_read))
        samples.wall_s += perf() - origin
    samples.busy_s += clock.busy - busy
    samples.latency.append(latency)
    samples.wait.append(wait)
    samples.chunk.append(np.full(nr, window))
    samples.users.append(arrivals.read_users)
    samples.ack.append(ack)
    samples.fresh.append(swapped - event_due)
    return answers, applied_seq


def closed_loop(clock: Clock, service, users: np.ndarray, seconds: float, reads: Phase,
                events: Arrivals, writes: Writes | None = None) -> float:
    """Back-to-back full micro-batches for ``seconds``; returns q/s.

    With ``writes``, events falling due are recorded between batches and
    applied before the next batch.
    """
    batch = service.batch_size
    position = ei = served = 0
    with clock.measure():
        origin = perf()
        while perf() - origin < seconds:
            if position + batch > len(users):
                position = 0
            group = users[position:position + batch]
            position += batch
            _serve_batch(service, group, reads)
            served += len(group)
            if writes is not None:
                while ei < len(events.event_due) and events.event_due[ei] <= perf() - origin:
                    writes.record(service, events, ei)
                    ei += 1
                if writes.pending():
                    writes.apply()
        return served / (perf() - origin)


# --------------------------------------------------------------------------- #
# The retrain path
# --------------------------------------------------------------------------- #
def _trainer(dataset, semantic, scale: ExperimentScale, compile_step: bool) -> tuple[AlignedRecommender, Trainer]:
    backbone = make_backbone("lightgcn", dataset, scale)
    alignment = build_variant("darec", backbone, semantic, scale)
    model = AlignedRecommender(backbone, alignment, trade_off=scale.trade_off)
    config = TrainingConfig(epochs=1, batch_size=scale.batch_size, compile=compile_step, seed=scale.seed)
    return model, Trainer(model, config)


@dataclass
class Training:
    epoch_s: list = field(default_factory=list)
    cycle_s: list = field(default_factory=list)
    recalls: list = field(default_factory=list)
    first_loss: float | None = None
    nonfinite: int = 0
    fallbacks: int = 0
    verified: int = 0


def retrain_cycle(clock: Clock, speed: Speedometer, cycle_input, path: Path, training: Training,
                  phase: Phase) -> None:
    """Train, evaluate and publish one model.

    Each epoch, and the evaluate-and-publish tail, is scaled by the
    Speedometer readings around it; the cycle time is their sum.
    """
    dataset, semantic, scale = cycle_input
    model, trainer = _trainer(dataset, semantic, scale, compile_step=True)
    phase.attempted += EPOCHS_PER_CYCLE + 2  # the epochs, evaluate, publish
    epochs: list[float] = []
    losses: list[float] = []
    try:
        for _ in range(EPOCHS_PER_CYCLE):
            with clock.measure():
                start = perf()
                losses.append(trainer.train_epoch())
                elapsed = perf() - start
            epochs.append(elapsed * speed.mark())
        with clock.measure():
            start = perf()
            recall = trainer.evaluate().metrics[f"recall@{K}"]
            published = snapshot_mod.create_snapshot(model)
            saved = snapshot_mod.save_snapshot(published, path)
            loaded = snapshot_mod.load_snapshot(saved, verify=True)
            index_mod.IVFIndex(loaded.item_embeddings, seed=0)
            elapsed = perf() - start
        tail = elapsed * speed.mark()
    except Exception:
        phase.fail(EPOCHS_PER_CYCLE + 2)
        return
    finally:
        for leftover in path.parent.glob(path.name + "*"):
            leftover.unlink()
    training.epoch_s += epochs
    training.cycle_s.append(sum(epochs) + tail)
    training.recalls.append(recall)
    if training.first_loss is None:
        training.first_loss = losses[0]
    bad = sum(1 for loss in losses if not math.isfinite(loss))
    fallbacks = trainer.compiled_step.stats.fallbacks if trainer.compiled_step is not None else 1
    training.nonfinite += bad
    training.fallbacks += fallbacks
    phase.failed += min(EPOCHS_PER_CYCLE, bad + fallbacks)
    training.verified += int(
        np.array_equal(loaded.user_embeddings, published.user_embeddings)
        and np.array_equal(loaded.item_embeddings, published.item_embeddings)
    )


def check_training(result: Result, training: Training, first_input) -> None:
    if training.first_loss is not None:
        # The eager twin: same seed, same data, eager execution.
        dataset, semantic, scale = first_input
        _, twin = _trainer(dataset, semantic, scale, compile_step=False)
        twin_loss = twin.train_epoch()
        result.check("train.compiled_equals_eager", twin_loss == training.first_loss,
                     f"first epoch: compiled {training.first_loss!r}, eager {twin_loss!r}")
    result.check("train.losses_finite", training.nonfinite == 0, f"{training.nonfinite} non-finite epoch losses")
    result.check("train.no_compile_fallback", training.fallbacks == 0, f"{training.fallbacks} fallbacks")
    cycles = len(training.cycle_s)
    result.check("train.published_loads_verified", cycles > 0 and training.verified == cycles,
                 f"{training.verified}/{cycles} snapshots round-tripped with verify=True")


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
class AnswerCheck:
    """Masking and cold-start contracts on every answered open-loop read.

    Run after each segment, outside the measured sections, so the answers
    need not outlive it.
    """

    def __init__(self, base) -> None:
        self.base = base
        self.popular = np.argsort(-base.item_popularity.astype(np.float64), kind="stable")[:K]
        self.leaked: dict[str, int] = {}
        self.unknown_wrong: dict[str, int] = {}

    def segment(self, label: str, users: np.ndarray, answers: list, applied_seq: np.ndarray, log=None) -> None:
        """With ``log``, a read's training items include the events applied
        before it was answered, and popularity counts move with them."""
        by_user: dict[int, list[tuple[int, int]]] = {}
        if log is not None:
            logged = log.slice(0, log.next_seq)
            for seq, (user, item) in enumerate(zip(logged.users.tolist(), logged.items.tolist())):
                by_user.setdefault(user, []).append((seq, item))
        leaked = unknown_wrong = 0
        for user, answer, applied in zip(users.tolist(), answers, applied_seq.tolist()):
            if answer is None:
                continue
            if user >= UNKNOWN_BASE:
                wrong = answer.source != "popularity"
                if log is None and not wrong:
                    wrong = not np.array_equal(answer.items, self.popular)
                unknown_wrong += wrong
            elif answer.source == "model":
                seen = [item for seq, item in by_user.get(user, ()) if seq < applied]
                if user < self.base.num_users:
                    seen.extend(self.base.train_items(user).tolist())
                leaked += bool(np.isin(answer.items, seen).any())
        self.leaked[label] = self.leaked.get(label, 0) + leaked
        self.unknown_wrong[label] = self.unknown_wrong.get(label, 0) + unknown_wrong

    def report(self, result: Result) -> None:
        for label, leaked in self.leaked.items():
            result.check(f"{label}.no_train_items_served", leaked == 0, f"{leaked} model answers held train items")
            wrong = self.unknown_wrong[label]
            result.check(f"{label}.unknown_ids_get_popularity", wrong == 0,
                         f"{wrong} unknown-id answers not from popularity")


def ivf_recall(service, samples: Samples) -> float:
    """Overlap of exact top-K with the IVF lists, over the distinct warm users read.

    Scored against the service's base snapshot and index, with the same
    training-item masking a served answer gets.
    """
    users = samples.cat("users")
    rows = np.unique(users[users < service.snapshot.num_users]).astype(np.int64)
    snapshot = service.snapshot
    approx, _ = service.retriever.topk_for_users(rows, K)
    exclude = gather_csr_rows(snapshot.train_indptr, snapshot.train_indices, rows)
    exact, _ = exact_topk(snapshot.user_embeddings[rows], snapshot.item_embeddings, K, exclude=exclude)
    overlaps = []
    for truth, found in zip(exact, approx):
        truth = truth[truth != PAD_INDEX]
        if truth.size:
            overlaps.append(np.isin(truth, found[found != PAD_INDEX]).sum() / truth.size)
    return float(np.mean(overlaps))


def check_log(result: Result, stack: Stack, acked: int) -> None:
    log, updater = stack.log, stack.updater
    result.check("ingest.wal_count_equals_acks", len(log) == acked, f"{len(log)} records, {acked} acks")
    result.check("ingest.all_applied", updater.applied_seq == log.next_seq,
                 f"applied_seq {updater.applied_seq}, next_seq {log.next_seq}")
    log.close()
    reopened = EventLog.open(stack.wal_path)
    try:
        result.check("ingest.wal_recovers_count", len(reopened) == acked, f"{len(reopened)} records recovered")
    finally:
        reopened.close()


def _degraded(service) -> int:
    """Warm queries the service answered by degradation or deadline shed."""
    return service.stats.degraded_queries + service.stats.deadline_shed


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, root: Path, ledger=None) -> Result:
    """Execute one workload.  With a ledger, setup and the even rounds are traced."""
    plan = plan_for(workload, seconds)
    result = Result()
    clock = Clock(ledger)
    inputs = make_inputs(seed, plan)
    # The inputs are not program state: keep the collector from re-scanning
    # them during the measured sections.
    gc.collect()
    gc.freeze()
    scratch = root / ".bench_tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    tally = {"applies": 0, "applied_events": 0, "folded_users": 0}
    serve, ingest = Samples(), Samples()
    rates = {True: [], False: []}
    training = Training()
    stack = None
    try:
        setup = result.phase("setup")
        speed = Speedometer()
        speed.mark()
        clock.traced = True
        setup_s = []
        for repeat in range(SETUP_REPEATS):
            if stack is not None:
                stack.log.close()
            attempt = directory / f"setup-{repeat}"
            attempt.mkdir()
            setup.attempted += 1
            start = perf()
            with clock.measure():
                stack = build_stack(inputs, attempt)
            elapsed = perf() - start
            setup_s.append(elapsed * speed.mark())

        retrain = result.phase("retrain")
        serve_reads, capacity_reads = result.phase("serve.reads"), result.phase("serve.capacity")
        serve_service = stack.writer if plan.serve_writes else stack.reader
        serve_writes = Writes(result.phase("serve.events"), stack.updater, tally) if plan.serve_writes else None
        ingest_writes = Writes(result.phase("ingest.events"), stack.updater, tally)
        ingest_reads = result.phase("ingest.reads")
        answers = AnswerCheck(stack.snapshot)
        serve_log = stack.log if plan.serve_writes else None
        for r, arrivals in enumerate(inputs.rounds):
            clock.traced = ledger is not None and r % 2 == 0
            # Each section is scaled by the readings just before and after it.
            retrain_cycle(clock, speed, arrivals.train, directory / f"cycle-{r}.npz", training, retrain)

            for i, part in enumerate(arrivals.serve):
                degraded = _degraded(serve_service)
                window = (r * SEGMENT_SLICES + i) // 2
                served = open_loop(clock, serve_service, part, serve, window, serve_reads, serve_writes)
                serve.factor.append(speed.mark())
                serve_reads.failed += _degraded(serve_service) - degraded
                answers.segment("serve", part.read_users, *served, log=serve_log)

            degraded = _degraded(serve_service)
            for users, events in arrivals.capacity:
                rate = closed_loop(clock, serve_service, users, plan.capacity_seconds / CAPACITY_SLICES,
                                   capacity_reads, events, serve_writes)
                rates[clock.traced].append(rate / speed.mark())
            capacity_reads.failed += _degraded(serve_service) - degraded

            for i, part in enumerate(arrivals.ingest):
                degraded = _degraded(stack.writer)
                window = (r * SEGMENT_SLICES + i) // 2
                served = open_loop(clock, stack.writer, part, ingest, window, ingest_reads, ingest_writes)
                ingest.factor.append(speed.mark())
                ingest_reads.failed += _degraded(stack.writer) - degraded
                answers.segment("ingest", part.read_users, *served, log=stack.log)
        clock.traced = False

        # Every time below is scaled to the reference speed (see Speedometer),
        # and a cost the run repeats is reported as the median of its repeats.
        result.metrics["setup_s"] = statistics.median(setup_s)
        if training.cycle_s:
            result.metrics["train.epoch_ms"] = statistics.median(training.epoch_s) * 1000.0
            result.metrics["train.cycle_s"] = statistics.median(training.cycle_s)
            result.metrics["train.recall_at_20"] = float(np.mean(training.recalls))
        latency, chunk = serve.scaled("latency"), serve.cat("chunk")
        result.metrics["serve.p50_ms"] = _chunked_ms(latency, chunk, 50)
        result.metrics["serve.p99_ms"] = _chunked_ms(latency, chunk, 99)
        result.metrics["serve.capacity_qps"] = statistics.median(rates[False])
        # The ingest segment's few hundred events and ~1k reads per run are
        # pooled.
        for name in ("ack", "fresh", "read"):
            values = ingest.scaled("latency" if name == "read" else name)
            for q in (50, 99):
                result.metrics[f"ingest.{name}_p{q}_ms"] = _pooled_ms(values, q)
        result.metrics["ingest.visible_p50_ms"] = _pooled_ms(ingest.scaled("fresh") - ingest.scaled("ack"), 50)
        recall = ivf_recall(stack.reader, serve)
        result.metrics["serve.recall_at_20"] = recall

        check_training(result, training, inputs.rounds[0].train)
        result.check("serve.ivf_recall_at_20", recall >= 0.95, f"{recall:.4f} >= 0.95")
        answers.report(result)
        event_phases = [result.phases[name] for name in ("serve.events", "ingest.events") if name in result.phases]
        acked = sum(phase.succeeded for phase in event_phases)
        # An acknowledged event that is never applied is a failed one.
        ingest_writes.phase.failed += stack.log.next_seq - stack.updater.applied_seq
        wal_bytes = stack.wal_path.stat().st_size
        check_log(result, stack, acked)

        late = serve.cat("wait")
        readings = np.asarray(speed.readings)
        result.info.update(
            plan=plan.__dict__,
            speed={"reference_ms": REFERENCE_MS, "readings": len(readings),
                   "measured_ms_p10_p50_p90": np.percentile(readings, [10, 50, 90]).tolist()},
            busy_s=clock.busy,
            traced_busy_s=clock.traced_busy,
            serve={
                "reads": int((~np.isnan(late)).sum()),
                "generator_late_p50_ms": _ms(late[~np.isnan(late)], 50),
                "generator_late_p99_ms": _ms(late[~np.isnan(late)], 99),
                "capacity_slices_qps_p10_p50_p90": np.percentile(rates[False], [10, 50, 90]).tolist(),
                "utilisation": serve.busy_s / serve.wall_s,
            },
            ingest={"events": acked, "swaps": stack.writer.stats.snapshot_swaps,
                    "utilisation": ingest.busy_s / ingest.wall_s},
            train={"cycles": len(training.cycle_s), "epochs": len(training.epoch_s)},
        )
        waits = np.concatenate([serve.cat("wait"), ingest.cat("wait")])
        result.info["counts"] = dict(
            tally,
            queue_wait=waits[~np.isnan(waits)],
            events=acked,
            wal_bytes=wal_bytes,
            fallbacks=training.fallbacks,
            traced_rates=rates[True],
            untraced_rates=rates[False],
        )
        result.info["services"] = (stack.reader, stack.writer)
    finally:
        if stack is not None:
            stack.log.close()
        shutil.rmtree(directory, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there
    result.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result
