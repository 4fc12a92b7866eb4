"""Append benchmark measurements to a JSON history file.

Each call appends one ``{"metric", "value", "commit", "date", "schema",
"env"}`` row, so the file accumulates a per-commit history that can be diffed
or plotted to catch performance regressions.  ``schema`` is
:data:`RECORD_SCHEMA` (bumped when the row shape changes); ``env`` captures
the measurement context a number is meaningless without — python/numpy
versions and CPU count — and deliberately nothing host-identifying (no
hostname, no usernames), so histories can be shared and committed.  The file
is a plain JSON list — human-readable, merge-friendly, and trivially loadable
with ``json.load``.

Updates are crash-safe: the grown list is written to a temporary file and
renamed over the history via ``os.replace``, so a benchmark process killed
mid-record leaves the previous history intact instead of a truncated JSON
document.  If the history is nonetheless found malformed (hand edit, merge
conflict), it is backed up beside itself with a ``.corrupt`` suffix — old
rows are preserved for manual recovery — and a fresh list is started with a
warning.

The history is also *consumed*, not just accumulated: ``check_regression``
(from :mod:`repro.obs.health`, the one implementation ``repro doctor --bench``
runs too) compares the newest measurement against the trailing median of its
predecessors, and ``record(..., guard_tolerance=...)`` appends a
``kind="regression_warning"`` row (same atomic write) when the new value has
drifted past tolerance — so a regression lands in the committed history
itself, where ``repro doctor --bench`` and reviewers both see it.  Warning
rows carry the same metric name but are excluded from future medians.

``record(..., bound=...)`` declares the benchmark's *own* acceptance
threshold (the ceiling a ratio must stay under, or the floor a speedup must
clear).  A value that violates its bound is persisted as the warning row
itself — annotated, excluded from every future trailing median — because a
measurement from a failing run is evidence of the failure, not a baseline.
Bench tests call ``record`` before their ``assert`` so the breach is
journaled either way; the bound keeps that ordering from laundering a red
run into clean history.

``record(..., context=True)`` marks a row as measurement *context* — the raw
q/s or ms behind a machine-invariant headline ratio.  Context rows are kept
for forensics but exempt from every regression check (here and in ``repro
doctor --bench``): absolute throughput tracks the machine du jour, and a
slower CI box is not a code regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import warnings
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.health import check_regression, infer_direction

__all__ = [
    "DEFAULT_HISTORY",
    "RECORD_SCHEMA",
    "check_regression",
    "current_commit",
    "env_metadata",
    "infer_direction",
    "record",
]

DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_nn_compile.json"

#: Row shape version: 1 = {metric, value, commit, date}; 2 adds schema + env.
RECORD_SCHEMA = 2


def env_metadata() -> dict:
    """Hostname-free measurement context stamped into every row.

    Only facts that change what a benchmark number *means* — interpreter and
    numpy versions, CPU count — never facts that identify the machine.
    """
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


def current_commit() -> str:
    """Short hash of the checked-out commit, or ``"unknown"`` outside git."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if result.returncode != 0:
        return "unknown"
    return result.stdout.strip() or "unknown"


def _load_history(path: Path) -> list:
    """Existing rows, or a fresh list after backing a malformed file up."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return []
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        loaded = None
    if isinstance(loaded, list):
        return loaded
    backup = path.with_name(path.name + ".corrupt")
    os.replace(path, backup)
    warnings.warn(
        f"benchmark history {path} was not a JSON list; backed it up to "
        f"{backup.name} and started a fresh history",
        stacklevel=3,
    )
    return []


def record(
    metric: str,
    value: float,
    path: Path | str | None = None,
    guard_tolerance: float | None = None,
    guard_direction: str | None = None,
    bound: float | None = None,
    context: bool = False,
) -> dict:
    """Append one measurement row and return it.

    The write is atomic (temp file + ``os.replace``): a crash mid-record can
    never truncate the accumulated history.  A malformed history file is
    backed up with a ``.corrupt`` suffix and a fresh list is started with a
    warning — losing the *view* of old rows is preferable to losing the new
    measurement, and the backup keeps them recoverable.

    With ``guard_tolerance`` set, the new value is checked against the
    trailing median (:func:`check_regression`) and a drift past tolerance
    appends a ``kind="regression_warning"`` row in the same atomic write —
    the history then *records* that the regression happened at this commit
    instead of silently absorbing the bad number into future baselines.

    ``bound`` is the benchmark's own acceptance threshold — a ceiling when
    lower is better for this metric, a floor when higher is (direction from
    ``guard_direction`` or :func:`infer_direction`).  A value violating its
    bound is written as the ``regression_warning`` row *itself*: the breach
    is journaled at this commit, ``repro doctor --bench`` surfaces it, and
    no future trailing median treats the failing run as a baseline.  The
    median guard is skipped for such a row — it is already flagged.

    ``context=True`` stamps the row ``kind="context"``: raw machine-speed
    numbers (q/s, ms) that explain a headline ratio but must never be
    regression-checked themselves.  Context rows take no ``bound`` or
    ``guard_tolerance``.
    """
    if context and (bound is not None or guard_tolerance is not None):
        raise ValueError("context rows take no bound or guard_tolerance")
    path = Path(path) if path is not None else DEFAULT_HISTORY
    row = {
        "metric": str(metric),
        "value": float(value),
        "commit": current_commit(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "schema": RECORD_SCHEMA,
        "env": env_metadata(),
    }
    if context:
        row["kind"] = "context"
    direction = guard_direction or infer_direction(metric)
    breached = bound is not None and (
        float(value) > bound if direction == "lower" else float(value) < bound
    )
    if breached:
        comparison = ">" if direction == "lower" else "<"
        row["kind"] = "regression_warning"
        row["bound"] = float(bound)
        row["direction"] = direction
        row["detail"] = (
            f"{metric} {float(value):.6g} {comparison} {'ceiling' if direction == 'lower' else 'floor'} "
            f"{float(bound):.6g} — measurement from a failing benchmark run, "
            f"excluded from future baselines"
        )
        warnings.warn(
            f"benchmark bound violated: {metric} {float(value):.6g} "
            f"{comparison} {float(bound):.6g}",
            stacklevel=2,
        )
    rows = _load_history(path)
    rows.append(row)
    if guard_tolerance is not None and not breached:
        found = check_regression(
            rows, metric, tolerance=guard_tolerance, direction=guard_direction
        )
        if found is not None:
            rows.append(
                {
                    "metric": str(metric),
                    "kind": "regression_warning",
                    "value": found["value"],
                    "baseline": found["baseline"],
                    "drift": found["drift"],
                    "direction": found["direction"],
                    "tolerance": found["tolerance"],
                    "detail": (
                        f"{metric} {found['value']:.6g} vs trailing median "
                        f"{found['baseline']:.6g} ({found['drift']:+.1%}, "
                        f"{found['direction']} is better)"
                    ),
                    "commit": row["commit"],
                    "date": row["date"],
                    "schema": RECORD_SCHEMA,
                }
            )
            warnings.warn(
                f"benchmark regression: {metric} {found['value']:.6g} vs "
                f"trailing median {found['baseline']:.6g} "
                f"({found['drift']:+.1%})",
                stacklevel=2,
            )
    payload = json.dumps(rows, indent=2) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise
    return row
