"""Outside-in layer ledger: spans around calls into each layer's public entry points.

The program is not edited.  :class:`Ledger` replaces the entry points listed in
:data:`ENTRY_POINTS` (class methods and module-level names, including the names
a caller module imported) with timing wrappers while it is installed, and puts
the originals back on :meth:`Ledger.uninstall`.  Every call made while the
ledger is recording becomes one span ``(name, start, end, parent)`` kept in
memory; :meth:`Ledger.write` dumps them when the run ends.

A span's *self time* is its duration minus the time covered by its child
spans.  Calls nest strictly (one thread), so the children of a span are the
spans whose parent it is, and their durations never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from pathlib import Path

perf = time.perf_counter

#: (layer name, patch sites).  The first site names what is wrapped; each
#: site is ``(module, attribute path)`` where the wrapper is installed.  A
#: function imported by name into another module is patched there too, since
#: that module calls its own binding.
ENTRY_POINTS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("serve.service.submit", (("repro.serve.service", "RecommendationService.submit"),)),
    ("serve.service.recommend_many", (("repro.serve.service", "RecommendationService.recommend_many"),)),
    ("serve.service.flush", (("repro.serve.service", "RecommendationService.flush"),)),
    ("serve.service.swap_snapshot", (("repro.serve.service", "RecommendationService.swap_snapshot"),)),
    ("serve.service.record_interaction", (("repro.serve.service", "RecommendationService.record_interaction"),)),
    ("serve.service.cache.get", (("repro.serve.service", "LRUCache.get"),)),
    ("serve.service.cache.put", (("repro.serve.service", "LRUCache.put"),)),
    ("serve.retrieval.topk_for_users", (("repro.serve.retrieval", "Retriever.topk_for_users"),)),
    ("serve.retrieval.exclusions_for", (("repro.serve.retrieval", "Retriever.exclusions_for"),)),
    ("serve.index.search", (("repro.serve.index", "IVFIndex.search"),)),
    ("serve.index.build", (("repro.serve.index", "IVFIndex.__init__"),)),
    (
        "eval.topk.topk_indices",
        (
            ("repro.serve.index", "topk_indices"),
            ("repro.serve.retrieval", "topk_indices"),
            ("repro.eval.protocol", "topk_indices"),
        ),
    ),
    ("stream.events.append", (("repro.stream.events", "EventLog.append"),)),
    ("stream.updater.apply", (("repro.stream.updater", "StreamingUpdater.apply"),)),
    ("stream.updater.merge_into_csr", (("repro.stream.updater", "merge_into_csr"),)),
    ("stream.foldin.fold_in_user", (("repro.stream.updater", "fold_in_user"),)),
    ("stream.drift.observe_batch", (("repro.stream.drift", "DriftMonitor.observe_batch"),)),
    ("stream.drift.check", (("repro.stream.drift", "DriftMonitor.check"),)),
    ("serve.snapshot.build_delta_snapshot", (("repro.stream.updater", "build_delta_snapshot"),)),
    ("serve.snapshot.create", (("repro.serve.snapshot", "create_snapshot"),)),
    ("serve.snapshot.save", (("repro.serve.snapshot", "save_snapshot"),)),
    ("serve.snapshot.load_verify", (("repro.serve.snapshot", "load_snapshot"),)),
    ("data.sampling.next", (("repro.data.sampling", "BprSampler.epoch"),)),
    ("align.darec.make_step_inputs", (("repro.align.base", "AlignedRecommender.make_step_inputs"),)),
    ("align.darec.disentangle", (("repro.align.darec.framework", "DaRec.disentangle"),)),
    ("cluster.kmeans.darec", (("repro.align.darec.framework", "kmeans"),)),
    ("cluster.kmeans.ivf", (("repro.serve.index", "kmeans"),)),
    ("nn.compile.step", (("repro.nn.compile", "CompiledStep.__call__"),)),
    ("nn.optim.adam_step", (("repro.nn.optim", "Adam.step"),)),
    ("eval.protocol.evaluate", (("repro.eval.protocol", "RankingEvaluator.evaluate"),)),
)

#: Entry points whose wrapped callable returns an iterator: each ``next()``
#: is one span (the sampler yields batches lazily inside the training loop).
_GENERATORS = {"data.sampling.next"}

#: Work counted at the boundary, per call: queries per IVF search.
_WORK = {"serve.index.search": lambda args: len(args[1])}

LAYER_NAMES = tuple(name for name, _ in ENTRY_POINTS)

#: The end-to-end metric each layer metric should move, written down before
#: measuring.  A layer's ``.calls``/``.self_ms``/``.share`` share its target.
TARGETS: tuple[tuple[tuple[str, ...], str], ...] = (
    (
        (
            "serve.service.submit", "serve.service.recommend_many", "serve.service.flush",
            "serve.service.swap_snapshot",
            "serve.service.record_interaction", "serve.service.cache.get", "serve.service.cache.put",
            "serve.service.cache.hit_ratio", "serve.service.batch_users", "serve.service.fallback_frac",
            "serve.queue_wait_p50_ms",
        ),
        "serve.p50_ms, serve.p99_ms, serve.capacity_qps on serve-zipf; small on ingest-mixed",
    ),
    (
        (
            "serve.retrieval.topk_for_users", "serve.retrieval.exclusions_for", "serve.index.search",
            "eval.topk.topk_indices", "serve.index.queries_per_search",
        ),
        "serve.* on both workloads, ingest.read_*; no train.* metric",
    ),
    (("stream.events.append", "stream.events.wal_bytes_per_event"), "ingest.ack_p50_ms, ingest.fresh_*"),
    (
        (
            "stream.updater.apply", "stream.updater.merge_into_csr", "stream.foldin.fold_in_user",
            "stream.drift.observe_batch", "stream.drift.check", "serve.snapshot.build_delta_snapshot",
            "stream.updater.events_per_apply", "stream.updater.users_per_apply",
        ),
        "ingest.visible_p50_ms, ingest.fresh_*, ingest.read_* (reads queue behind apply); serve.* on ingest-mixed",
    ),
    (
        (
            "data.sampling.next", "align.darec.make_step_inputs", "align.darec.disentangle",
            "cluster.kmeans.darec", "nn.compile.step", "nn.compile.fallbacks", "nn.optim.adam_step",
            "eval.protocol.evaluate",
        ),
        "train.epoch_ms, train.cycle_s",
    ),
    (
        (
            "cluster.kmeans.ivf", "serve.index.build", "serve.snapshot.create", "serve.snapshot.save",
            "serve.snapshot.load_verify",
        ),
        "train.cycle_s, setup_s",
    ),
    (("trace.coverage", "trace.overhead"), "none: they qualify the ledger itself"),
)


def target_of(metric: str) -> str | None:
    for names, target in TARGETS:
        for name in names:
            if metric == name or metric.startswith(name + "."):
                return target
    return None


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Ledger:
    """In-memory span recorder wired around :data:`ENTRY_POINTS`."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1); a slot is ``None`` while open.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.recording = False
        #: Work counted by :data:`_WORK`, per layer.
        self.work = {name: 0 for name in _WORK}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for name, sites in ENTRY_POINTS:
            owner, attribute = _resolve(*sites[0])
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            wrapper = self._wrap_iterator(name, original) if name in _GENERATORS else self._wrap(name, original)
            for site in sites:
                site_owner, site_attribute = _resolve(*site)
                self._patched.append((site_owner, site_attribute, getattr(site_owner, site_attribute)))
                setattr(site_owner, site_attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = perf()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        ledger = self
        work = _WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.recording:
                return fn(*args, **kwargs)
            if work is not None:
                ledger.work[name] += work(args)
            index, parent = ledger._open()
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                ledger._close(name, index, parent, start)

        return wrapper

    def _wrap_iterator(self, name: str, fn):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                if not ledger.recording:
                    item = next(iterator, StopIteration)
                else:
                    index, parent = ledger._open()
                    start = perf()
                    try:
                        item = next(iterator, StopIteration)
                    finally:
                        ledger._close(name, index, parent, start)
                if item is StopIteration:
                    return
                yield item

        return wrapper

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` over every closed span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals = {name: [0, 0.0] for name in LAYER_NAMES}
        for span, covered in zip(self.spans, child_time):
            if span is None:
                continue
            entry = totals[span[0]]
            entry[0] += 1
            entry[1] += (span[2] - span[1]) - covered
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def write(self, path: Path) -> Path:
        """Write the spans as gzipped JSON lines ``[name, start_us, end_us, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[1] for span in self.spans if span is not None), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent = span
                handle.write(
                    json.dumps([name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent])
                )
                handle.write("\n")
        return path
