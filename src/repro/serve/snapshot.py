"""Embedding snapshots: frozen model state for the online serving layer.

A snapshot captures everything the serving path needs — the propagated user and
item embedding tables, the train-interaction lists used for masking, and the
item popularity counts used for cold-start fallback — in a single versioned
``.npz`` artifact.  Loading a snapshot requires **no model code**: the file is
plain NumPy arrays plus a JSON metadata string, so a serving process can depend
on :mod:`repro.serve` alone.

See the :mod:`repro.serve` package docstring for the on-disk format.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
import zipfile
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..reliability.atomicio import atomic_write_bytes

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotIntegrityError",
    "EmbeddingSnapshot",
    "create_snapshot",
    "build_snapshot",
    "build_delta_snapshot",
    "save_snapshot",
    "load_snapshot",
    "manifest_path",
    "active_snapshot_id",
]

#: Bump when the on-disk layout or the ``snapshot_id`` definition changes;
#: loaders reject every other version.  Version 2 ids hash row blocks.
SNAPSHOT_FORMAT_VERSION = 2

#: Rows per hashed block of an embedding table (see :func:`_content_hash`).
_HASH_BLOCK_ROWS = 256

#: The arrays persisted in every snapshot archive, in canonical order.
_ARRAY_FIELDS = (
    "user_embeddings",
    "item_embeddings",
    "train_indptr",
    "train_indices",
    "item_popularity",
)


class SnapshotIntegrityError(ValueError):
    """A snapshot file is corrupt or inconsistent with its own metadata.

    Raised at *load* time — a broken artifact must be rejected before it can
    reach the serving path, not discovered query-by-query later.
    """


@dataclass
class EmbeddingSnapshot:
    """Frozen user/item embeddings plus the serving-side bookkeeping arrays.

    Attributes
    ----------
    user_embeddings, item_embeddings:
        Post-propagation tables; ``user_embeddings @ item_embeddings.T``
        reproduces the model's ``score_all()`` matrix exactly.  Both must be
        finite: a NaN or inf entry raises ``ValueError`` at construction.
    train_indptr, train_indices:
        CSR layout of each user's training items (``train_indices`` holds the
        sorted item ids of user ``u`` in the half-open slice
        ``train_indptr[u]:train_indptr[u + 1]``); used to mask already-seen
        items out of recommendations.
    item_popularity:
        Training interaction count per item, the cold-start fallback ranking.
    metadata:
        JSON-serialisable provenance: format version, producing model and
        dataset, shapes, creation time and a content-addressed ``snapshot_id``.
    base:
        Init-only: the snapshot a delta derives from
        (:func:`build_delta_snapshot`).  Row blocks whose bytes equal
        ``base``'s, and an item table that *is* ``base``'s, were hashed and
        checked when ``base`` was built: their digests are reused and they
        are not scanned for NaN/inf again.  No reference to ``base`` is kept.

    Every snapshot also holds the SHA-256 digest of each
    ``_HASH_BLOCK_ROWS``-row block of both tables (private, in memory only;
    never persisted).  The tables are treated as immutable: writing into them
    after construction leaves those digests, and ``snapshot_id``, stale.
    """

    user_embeddings: np.ndarray
    item_embeddings: np.ndarray
    train_indptr: np.ndarray
    train_indices: np.ndarray
    item_popularity: np.ndarray
    metadata: dict = field(default_factory=dict)
    base: InitVar[EmbeddingSnapshot | None] = None

    def __post_init__(self, base: EmbeddingSnapshot | None) -> None:
        self.user_embeddings = np.atleast_2d(np.asarray(self.user_embeddings))
        self.item_embeddings = np.atleast_2d(np.asarray(self.item_embeddings))
        self.train_indptr = np.asarray(self.train_indptr, dtype=np.int64)
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        self.item_popularity = np.asarray(self.item_popularity)
        if self.user_embeddings.shape[1] != self.item_embeddings.shape[1]:
            raise ValueError(
                "user and item embeddings disagree on dimensionality: "
                f"{self.user_embeddings.shape[1]} vs {self.item_embeddings.shape[1]}"
            )
        if len(self.train_indptr) != self.num_users + 1:
            raise ValueError("train_indptr must have num_users + 1 entries")
        if len(self.item_popularity) != self.num_items:
            raise ValueError("item_popularity must have one entry per item")
        if base is None:
            user_digests, fresh = _block_digests(self.user_embeddings)
        else:
            user_digests, fresh = _block_digests(
                self.user_embeddings, base.user_embeddings, base._block_digests[0]
            )
        _require_finite("user_embeddings", self.user_embeddings, fresh)
        if base is not None and self.item_embeddings is base.item_embeddings:
            item_digests = base._block_digests[1]
        else:
            item_digests, fresh = _block_digests(self.item_embeddings)
            _require_finite("item_embeddings", self.item_embeddings, fresh)
        self._block_digests = (user_digests, item_digests)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_users(self) -> int:
        return self.user_embeddings.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.user_embeddings.shape[1]

    @property
    def snapshot_id(self) -> str:
        """The recorded content id of the embedding tables.

        :func:`build_snapshot`, :func:`build_delta_snapshot` and
        :func:`load_snapshot` set it to :func:`_content_hash` of the tables —
        the first 16 hex digits of a SHA-256 over the row counts and the
        per-block SHA-256 digests, users then items — so it changes iff the
        tables' bytes do.  A delta computes it from its base's block digests,
        re-hashing only the blocks whose bytes changed.
        """
        return self.metadata["snapshot_id"]

    def train_items(self, user: int) -> np.ndarray:
        """Sorted training items of ``user`` (empty for history-less users)."""
        start, stop = self.train_indptr[user], self.train_indptr[user + 1]
        return self.train_indices[start:stop]

    def has_history(self, user: int) -> bool:
        return bool(self.train_indptr[user + 1] > self.train_indptr[user])

    # ------------------------------------------------------------------ #
    # Delta provenance (streaming updates)
    # ------------------------------------------------------------------ #
    @property
    def is_delta(self) -> bool:
        """True when this snapshot was derived by folding events into a base."""
        return "base_snapshot_id" in self.metadata

    @property
    def base_snapshot_id(self) -> str | None:
        """Id of the immediate parent snapshot (``None`` for full exports)."""
        return self.metadata.get("base_snapshot_id")

    @property
    def delta_generation(self) -> int:
        """How many delta steps separate this snapshot from a full export."""
        return int(self.metadata.get("delta_generation", 0))

    @property
    def delta_event_range(self) -> tuple[int, int] | None:
        """Half-open ``[start, stop)`` event-log seq range this delta absorbed."""
        value = self.metadata.get("delta_event_range")
        return None if value is None else (int(value[0]), int(value[1]))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        return save_snapshot(self, path)


def _block_digests(
    table: np.ndarray,
    base_table: np.ndarray | None = None,
    base_digests: tuple[bytes, ...] = (),
) -> tuple[tuple[bytes, ...], list[int]]:
    """SHA-256 digest of each ``_HASH_BLOCK_ROWS``-row block of ``table``.

    A block whose bytes equal the same rows of ``base_table`` reuses the
    base's digest.  Bytes, not values, are compared: ``0.0 == -0.0`` holds,
    yet the two hash differently.  Also returns the indices of the blocks
    hashed afresh (every block without a base).
    """
    table = np.ascontiguousarray(table)
    if base_table is not None:
        base_table = np.ascontiguousarray(base_table)
    digests: list[bytes] = []
    fresh: list[int] = []
    for block, start in enumerate(range(0, len(table), _HASH_BLOCK_ROWS)):
        rows = table[start : start + _HASH_BLOCK_ROWS]
        if (
            block < len(base_digests)
            and rows.tobytes() == base_table[start : start + _HASH_BLOCK_ROWS].tobytes()
        ):
            digests.append(base_digests[block])
        else:
            digests.append(hashlib.sha256(rows).digest())
            fresh.append(block)
    return tuple(digests), fresh


def _require_finite(name: str, table: np.ndarray, blocks: list[int]) -> None:
    """Raise if the listed row blocks of ``table`` hold a NaN or inf."""
    bad = 0
    for block in blocks:
        rows = table[block * _HASH_BLOCK_ROWS : (block + 1) * _HASH_BLOCK_ROWS]
        bad += rows.size - int(np.count_nonzero(np.isfinite(rows)))
    if bad:
        raise ValueError(f"{name} holds {bad} NaN/inf entries; a snapshot must be finite")


def _id_from_digests(
    num_users: int, num_items: int, user_digests: tuple[bytes, ...], item_digests: tuple[bytes, ...]
) -> str:
    digest = hashlib.sha256(np.array([num_users, num_items], dtype="<i8").tobytes())
    digest.update(b"".join(user_digests))
    digest.update(b"".join(item_digests))
    return digest.hexdigest()[:16]


def _content_hash(user_embeddings: np.ndarray, item_embeddings: np.ndarray) -> str:
    """The ``snapshot_id`` of two tables, computed from scratch.

    Each table is cut into blocks of ``_HASH_BLOCK_ROWS`` rows and each
    block's bytes are SHA-256 hashed; the id is the first 16 hex digits of a
    SHA-256 over both row counts (little-endian int64), then the user-block
    digests, then the item-block digests.  It changes iff the tables' bytes
    (or shapes) do.  Snapshots keep their block digests, so a delta re-hashes
    only the blocks it changed; this function is the from-scratch reference.
    """
    users = np.atleast_2d(np.asarray(user_embeddings))
    items = np.atleast_2d(np.asarray(item_embeddings))
    return _id_from_digests(
        len(users), len(items), _block_digests(users)[0], _block_digests(items)[0]
    )


def _snapshot_content_id(snapshot: EmbeddingSnapshot) -> str:
    """:func:`_content_hash` of ``snapshot``'s tables, from its kept digests."""
    return _id_from_digests(snapshot.num_users, snapshot.num_items, *snapshot._block_digests)


def _train_csr(train_pairs: np.ndarray, num_users: int, num_items: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR train lists plus per-item popularity from an ``(n, 2)`` pair array."""
    train_pairs = np.asarray(train_pairs, dtype=np.int64)
    if train_pairs.size == 0:
        train_pairs = train_pairs.reshape(0, 2)
    users, items = train_pairs[:, 0], train_pairs[:, 1]
    if len(train_pairs) and (
        train_pairs.min() < 0 or users.max() >= num_users or items.max() >= num_items
    ):
        raise ValueError(
            f"train pairs must hold user ids in [0, {num_users}) and item ids in [0, {num_items})"
        )
    popularity = np.bincount(items, minlength=num_items)
    # One 1-D unique over ``user * num_items + item`` sorts and deduplicates
    # the pairs in (user, item) order, as np.unique(axis=0) would, at a
    # fraction of its cost.
    users, items = np.divmod(np.unique(users * num_items + items), num_items)
    counts = np.bincount(users, minlength=num_users)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr.astype(np.int64), items, popularity.astype(np.int64)


def build_snapshot(
    user_embeddings: np.ndarray,
    item_embeddings: np.ndarray,
    train_pairs: np.ndarray | None = None,
    model_name: str = "external",
    dataset_name: str = "unknown",
    extra_metadata: dict | None = None,
) -> EmbeddingSnapshot:
    """Assemble a snapshot from raw arrays (no model object required).

    ``train_pairs`` is an ``(n, 2)`` array of (user, item) training
    interactions; omit it for embeddings with no interaction history (masking
    and popularity fallback then degrade gracefully to no-ops).
    """
    user_embeddings = np.atleast_2d(np.asarray(user_embeddings))
    item_embeddings = np.atleast_2d(np.asarray(item_embeddings))
    num_users, num_items = user_embeddings.shape[0], item_embeddings.shape[0]
    if train_pairs is None:
        train_pairs = np.empty((0, 2), dtype=np.int64)
    indptr, indices, popularity = _train_csr(train_pairs, num_users, num_items)
    metadata = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "repro_version": __version__,
        "model": model_name,
        "dataset": dataset_name,
        "num_users": num_users,
        "num_items": num_items,
        "embedding_dim": user_embeddings.shape[1],
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    snapshot = EmbeddingSnapshot(
        user_embeddings=user_embeddings,
        item_embeddings=item_embeddings,
        train_indptr=indptr,
        train_indices=indices,
        item_popularity=popularity,
        metadata=metadata,
    )
    metadata["snapshot_id"] = _snapshot_content_id(snapshot)
    return snapshot


def build_delta_snapshot(
    base: EmbeddingSnapshot,
    user_embeddings: np.ndarray,
    train_indptr: np.ndarray,
    train_indices: np.ndarray,
    item_popularity: np.ndarray,
    event_range: tuple[int, int],
    extra_metadata: dict | None = None,
) -> EmbeddingSnapshot:
    """Derive a new snapshot version from ``base`` with updated user state.

    The item table is *shared* (same array object) with the base — streaming
    fold-in never retrains items, and keeping the object identity lets the
    serving layer detect that any item-side index remains valid across the
    swap.  The new ``snapshot_id`` reuses ``base``'s block digests for the
    item table and for every user block whose bytes are unchanged, so only
    the rows the delta changed or appended are re-hashed (and scanned for
    NaN/inf).  Provenance is recorded in the metadata: ``base_snapshot_id`` (the
    immediate parent), ``delta_generation`` (parent's generation + 1) and
    ``delta_event_range`` (the half-open event-log sequence window the
    producing update cycle drained — successive deltas tile the log; see
    :class:`repro.stream.UpdateReport` for the exact drained-vs-folded
    semantics when updates are deferred).
    """
    user_embeddings = np.atleast_2d(np.asarray(user_embeddings))
    start, stop = int(event_range[0]), int(event_range[1])
    if stop < start:
        raise ValueError("event_range must be a half-open [start, stop) pair")
    metadata = dict(base.metadata)
    metadata.update(
        {
            "num_users": user_embeddings.shape[0],
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "base_snapshot_id": base.snapshot_id,
            "delta_generation": base.delta_generation + 1,
            "delta_event_range": [start, stop],
        }
    )
    if extra_metadata:
        metadata.update(extra_metadata)
    snapshot = EmbeddingSnapshot(
        user_embeddings=user_embeddings,
        item_embeddings=base.item_embeddings,
        train_indptr=train_indptr,
        train_indices=train_indices,
        item_popularity=item_popularity,
        metadata=metadata,
        base=base,
    )
    metadata["snapshot_id"] = _snapshot_content_id(snapshot)
    return snapshot


def create_snapshot(model, model_name: str | None = None, extra_metadata: dict | None = None) -> EmbeddingSnapshot:
    """Export the frozen serving state of a trained recommender.

    Works with any object exposing ``propagate()`` (post-message-passing user
    and item tables) and a ``dataset`` attribute — both ``BaseRecommender``
    backbones and ``AlignedRecommender`` composites qualify.  The exported
    tables include every propagation and alignment transform, so serving
    scores match offline ``score_all()`` exactly.
    """
    from ..nn import no_grad  # local import keeps snapshot *loading* model-free

    dataset = model.dataset
    with no_grad():
        users, items = model.propagate()
    name = model_name or getattr(model, "name", type(model).__name__)
    return build_snapshot(
        np.array(users.data, copy=True),
        np.array(items.data, copy=True),
        train_pairs=dataset.train,
        model_name=str(name),
        dataset_name=dataset.name,
        extra_metadata=extra_metadata,
    )


def manifest_path(path: str | Path) -> Path:
    """Sidecar manifest location for a snapshot at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".manifest.json")


def active_snapshot_id(directory: str | Path = ".") -> str | None:
    """The id of the most recently published snapshot in ``directory``.

    Scans the directory's sidecar manifests (``*.manifest.json``), picks the
    newest by modification time and returns its recorded ``snapshot_id``.
    Returns ``None`` when there is no readable manifest — this is a display
    helper (``repro --version`` uses it to report the snapshot context it is
    running in), so unreadable or foreign files are skipped, never fatal.
    """
    directory = Path(directory)
    best: tuple[float, str] | None = None
    try:
        manifests = list(directory.glob("*.manifest.json"))
    except OSError:
        return None
    for manifest in manifests:
        try:
            stamp = manifest.stat().st_mtime
            snapshot_id = json.loads(manifest.read_text()).get("snapshot_id")
        except (OSError, json.JSONDecodeError):
            continue
        if snapshot_id and (best is None or stamp > best[0]):
            best = (stamp, str(snapshot_id))
    return None if best is None else best[1]


def _array_digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array)).hexdigest()


def build_manifest(snapshot: EmbeddingSnapshot) -> dict:
    """The sidecar manifest contents: per-array sha256 + metadata echo."""
    return {
        "manifest_version": 1,
        "snapshot_id": snapshot.metadata.get("snapshot_id"),
        "arrays": {
            name: {
                "sha256": _array_digest(getattr(snapshot, name)),
                "shape": list(getattr(snapshot, name).shape),
                "dtype": str(getattr(snapshot, name).dtype),
            }
            for name in _ARRAY_FIELDS
        },
        "metadata": snapshot.metadata,
    }


def save_snapshot(snapshot: EmbeddingSnapshot, path: str | Path) -> Path:
    """Atomically publish ``snapshot`` at ``path`` as a compressed ``.npz``.

    The archive is serialised in memory, written to a temporary file, fsynced
    and renamed over ``path`` (``os.replace``), so a crash mid-save can never
    leave a torn archive under the published name — readers see the old
    snapshot or the new one, nothing in between.  A sidecar manifest
    (:func:`manifest_path`) with per-array sha256 digests and a metadata echo
    is published the same way immediately after; :func:`load_snapshot` with
    ``verify=True`` checks the arrays against it bit-for-bit.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        metadata_json=np.array(json.dumps(snapshot.metadata)),
        **{name: getattr(snapshot, name) for name in _ARRAY_FIELDS},
    )
    atomic_write_bytes(path, buffer.getvalue(), "snapshot")
    manifest = json.dumps(build_manifest(snapshot), indent=2).encode()
    atomic_write_bytes(manifest_path(path), manifest, "snapshot.manifest")
    return path


def _validate_metadata(path: Path, metadata: dict, arrays: dict) -> None:
    """Cross-check the metadata's self-description against the actual arrays."""
    users, items = arrays["user_embeddings"], arrays["item_embeddings"]
    declared = {
        "num_users": int(metadata.get("num_users", -1)),
        "num_items": int(metadata.get("num_items", -1)),
        "embedding_dim": int(metadata.get("embedding_dim", -1)),
    }
    actual = {
        "num_users": int(users.shape[0]),
        "num_items": int(items.shape[0]),
        "embedding_dim": int(users.shape[1]) if users.ndim == 2 else -1,
    }
    mismatches = [
        f"{key}: metadata says {declared[key]}, arrays say {actual[key]}"
        for key in declared
        if declared[key] != actual[key]
    ]
    if mismatches:
        raise SnapshotIntegrityError(
            f"{path}: snapshot metadata disagrees with its arrays "
            f"({'; '.join(mismatches)}) — the file is corrupt or was tampered with"
        )
    if not metadata.get("snapshot_id"):
        raise SnapshotIntegrityError(f"{path}: snapshot metadata is missing its snapshot_id")


def _verify_manifest(path: Path, metadata: dict, arrays: dict) -> None:
    """Check every array against the sidecar manifest's sha256 digests."""
    sidecar = manifest_path(path)
    try:
        manifest = json.loads(sidecar.read_text())
    except FileNotFoundError as error:
        raise SnapshotIntegrityError(
            f"{path}: verify=True but the sidecar manifest {sidecar} is missing"
        ) from error
    except (json.JSONDecodeError, OSError) as error:
        raise SnapshotIntegrityError(
            f"{path}: sidecar manifest {sidecar} is unreadable: {error}"
        ) from error
    if manifest.get("snapshot_id") != metadata.get("snapshot_id"):
        raise SnapshotIntegrityError(
            f"{path}: manifest describes snapshot {manifest.get('snapshot_id')} "
            f"but the archive contains {metadata.get('snapshot_id')} — the two "
            "files are from different publishes"
        )
    declared_arrays = manifest.get("arrays", {})
    for name in _ARRAY_FIELDS:
        entry = declared_arrays.get(name)
        if entry is None:
            raise SnapshotIntegrityError(f"{path}: manifest has no digest for array {name!r}")
        digest = _array_digest(arrays[name])
        if digest != entry.get("sha256"):
            raise SnapshotIntegrityError(
                f"{path}: array {name!r} sha256 {digest} does not match the "
                f"manifest ({entry.get('sha256')}) — the array bytes are corrupt"
            )


def load_snapshot(path: str | Path, verify: bool = False) -> EmbeddingSnapshot:
    """Load a snapshot produced by :func:`save_snapshot`.

    Depends only on NumPy — no model, trainer or dataset code is imported —
    so a serving process can run from the artifact alone.

    Integrity: the metadata's shape fields are always validated against the
    actual arrays and the embedding content hash is always recomputed and
    compared to the recorded ``snapshot_id`` — mismatches raise
    :class:`SnapshotIntegrityError` here instead of surfacing as garbage at
    query time.  With ``verify=True``, every array is additionally checked
    bit-for-bit against the sidecar manifest's sha256 digests (and the
    manifest must exist and match this publish).
    """
    path = Path(path)
    try:
        archive_handle = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as error:
        if isinstance(error, FileNotFoundError):
            raise
        raise SnapshotIntegrityError(
            f"{path} is not a readable snapshot archive ({error}) — it may be "
            "a torn write from a crashed producer"
        ) from error
    with archive_handle as archive:
        try:
            metadata = json.loads(str(archive["metadata_json"]))
        except KeyError as error:
            raise ValueError(f"{path} is not a repro embedding snapshot") from error
        version = int(metadata.get("format_version", -1))
        if version == 1:
            raise ValueError(
                f"{path}: snapshot format version 1 records a snapshot_id this "
                "build no longer computes (ids now hash row blocks); re-export "
                "the snapshot from its model or tables with this build"
            )
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"snapshot format version {version} is not supported by this "
                f"build (expected {SNAPSHOT_FORMAT_VERSION})"
            )
        try:
            arrays = {name: archive[name] for name in _ARRAY_FIELDS}
        except (KeyError, zipfile.BadZipFile, OSError) as error:
            raise SnapshotIntegrityError(
                f"{path}: snapshot archive is incomplete or unreadable ({error})"
            ) from error
    _validate_metadata(path, metadata, arrays)
    try:
        snapshot = EmbeddingSnapshot(metadata=metadata, **arrays)
    except ValueError as error:  # non-finite tables, a CSR of the wrong length
        raise SnapshotIntegrityError(f"{path}: {error}") from error
    actual_id = _snapshot_content_id(snapshot)
    if actual_id != snapshot.snapshot_id:
        raise SnapshotIntegrityError(
            f"{path}: embedding content hash {actual_id} does not match the "
            f"recorded snapshot_id {snapshot.snapshot_id} — the embedding tables are corrupt"
        )
    if verify:
        _verify_manifest(path, metadata, arrays)
    return snapshot
