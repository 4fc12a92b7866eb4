"""Per-op profiling: decompose a compiled epoch into its hottest primitives.

:class:`OpProfiler` is a flat name → (seconds, calls) accumulator designed
for the compile-and-replay hot loop in :mod:`repro.nn.compile`: the replay
path times each forward/backward thunk with two ``perf_counter`` reads and a
dict update, keyed by primitive name (``matmul.fwd``, ``adam.step``).  The
:class:`~repro.train.trainer.Trainer` adds the pieces a tape replay cannot
see — sampler batch production, input staging, the optimizer step — so the
summed report accounts for (almost) all of the measured epoch wall time.

Usage::

    profiler = OpProfiler()
    step = compile(step_fn, profiler=profiler)     # repro.nn.compile
    ... run an epoch ...
    print(profiler.report(top_k=10).render())

The profiler is plain data with no global state: attach one where you want
numbers, pass ``None`` (the default everywhere) to keep the replay loop
untouched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

__all__ = ["OpProfiler", "ProfileReport", "ProfileRow", "timed_section"]

_UNTIMED = nullcontext()


@dataclass(frozen=True)
class ProfileRow:
    """One aggregated profile line: an op key with its total cost."""

    key: str
    seconds: float
    calls: int
    share: float  # fraction of the report's total_seconds

    @property
    def per_call(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


@dataclass(frozen=True)
class ProfileReport:
    """Sorted per-op timing breakdown produced by :meth:`OpProfiler.report`.

    ``rows`` hold the top-K hottest keys (by total seconds); ``other_seconds``
    and ``other_keys`` summarise everything below the cut so the rows plus the
    remainder always sum to ``total_seconds``.
    """

    rows: tuple[ProfileRow, ...]
    total_seconds: float
    total_calls: int
    other_seconds: float
    other_keys: int

    def render(self) -> str:
        """Self-contained text table of the breakdown."""
        lines = [
            f"op profile: {self.total_seconds:.6f}s total across "
            f"{self.total_calls} calls, {len(self.rows) + self.other_keys} op(s)",
            f"{'op':<32} {'total_s':>12} {'share':>7} {'calls':>9} {'per_call_us':>12}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.key:<32} {row.seconds:>12.6f} {row.share:>7.1%} "
                f"{row.calls:>9d} {row.per_call * 1e6:>12.2f}"
            )
        if self.other_keys:
            share = self.other_seconds / self.total_seconds if self.total_seconds else 0.0
            lines.append(
                f"{f'(other: {self.other_keys} ops)':<32} "
                f"{self.other_seconds:>12.6f} {share:>7.1%}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready form, recorded next to benchmark results."""
        return {
            "total_seconds": self.total_seconds,
            "total_calls": self.total_calls,
            "other_seconds": self.other_seconds,
            "other_keys": self.other_keys,
            "rows": [
                {
                    "key": row.key,
                    "seconds": row.seconds,
                    "share": row.share,
                    "calls": row.calls,
                }
                for row in self.rows
            ],
        }


class OpProfiler:
    """Accumulates ``key -> (total seconds, calls)`` with minimal overhead.

    The replay loop calls :meth:`add` directly with a pre-computed delta (two
    clock reads per thunk, no context-manager machinery); coarser regions use
    the :meth:`time` context manager.  Not thread-safe by design — attach one
    profiler per training run, which is single-threaded.
    """

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, key: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` (and ``calls``) to ``key``."""
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.calls[key] = self.calls.get(key, 0) + calls

    @contextmanager
    def time(self, key: str):
        """Time a ``with`` block into ``key``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(key, time.perf_counter() - start)

    def reset(self) -> None:
        """Clear all accumulated timings (e.g. after a warm-up epoch)."""
        self.seconds.clear()
        self.calls.clear()

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def report(self, top_k: int = 20) -> ProfileReport:
        """Aggregate into a :class:`ProfileReport` of the ``top_k`` hottest keys."""
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        total = self.total_seconds
        ranked = sorted(self.seconds.items(), key=lambda kv: -kv[1])
        head = ranked[:top_k]
        tail = ranked[top_k:]
        rows = tuple(
            ProfileRow(
                key=key,
                seconds=seconds,
                calls=self.calls.get(key, 0),
                share=seconds / total if total else 0.0,
            )
            for key, seconds in head
        )
        return ProfileReport(
            rows=rows,
            total_seconds=total,
            total_calls=sum(self.calls.values()),
            other_seconds=sum(seconds for _, seconds in tail),
            other_keys=len(tail),
        )


def timed_section(profiler: OpProfiler | None, key: str):
    """``profiler.time(key)``, or a shared no-op context when ``profiler`` is None."""
    return _UNTIMED if profiler is None else profiler.time(key)
