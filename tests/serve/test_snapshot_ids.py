"""Blockwise snapshot ids: a delta's id equals the id computed from scratch.

A snapshot keeps the SHA-256 digest of every ``_HASH_BLOCK_ROWS``-row block of
its tables, and a delta re-hashes only the user blocks whose *bytes* differ
from its base's.  These tests walk delta chains from bases that were built,
loaded from disk, or constructed directly, and check every generation against
:func:`_content_hash` on its own tables and through a save/verified-load
round trip.
"""

from __future__ import annotations

import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.serve import (
    EmbeddingSnapshot,
    RecommendationService,
    SnapshotIntegrityError,
    build_delta_snapshot,
    build_snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.serve.snapshot import _HASH_BLOCK_ROWS, _array_digest, _content_hash
from repro.stream import EventLog, StreamingUpdater

#: Three user blocks (the last one partial) and two item blocks.
NUM_USERS = 2 * _HASH_BLOCK_ROWS + 88
NUM_ITEMS = _HASH_BLOCK_ROWS + 44
DIM = 4
#: A row in the middle block, away from every block edge.
MIDDLE_ROW = _HASH_BLOCK_ROWS + 17


def tables(seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(NUM_USERS, DIM)), rng.normal(size=(NUM_ITEMS, DIM))


def make_base(origin: str, tmp_path) -> EmbeddingSnapshot:
    users, items = tables()
    built = build_snapshot(users, items, train_pairs=np.array([[0, 1], [MIDDLE_ROW, 2]]))
    if origin == "built":
        return built
    if origin == "loaded":
        return load_snapshot(save_snapshot(built, tmp_path / "base.npz"), verify=True)
    # Constructed directly, from Fortran-ordered copies of the same tables.
    return EmbeddingSnapshot(
        user_embeddings=np.asfortranarray(users),
        item_embeddings=np.asfortranarray(items),
        train_indptr=built.train_indptr,
        train_indices=built.train_indices,
        item_popularity=built.item_popularity,
        metadata=dict(built.metadata),
    )


def derive(base: EmbeddingSnapshot, users: np.ndarray, generation: int) -> EmbeddingSnapshot:
    """A delta of ``base`` with user table ``users``; grown users get no history."""
    grown = len(users) - base.num_users
    indptr = np.concatenate([base.train_indptr, np.full(grown, base.train_indptr[-1])])
    return build_delta_snapshot(
        base,
        user_embeddings=users,
        train_indptr=indptr,
        train_indices=base.train_indices,
        item_popularity=base.item_popularity,
        event_range=(generation, generation + 1),
    )


def change_one_row(users: np.ndarray) -> np.ndarray:
    users = users.copy()
    users[MIDDLE_ROW] += 1.0
    return users


def append_rows(users: np.ndarray) -> np.ndarray:
    """Grow past a block edge; every appended row but the last is a zero gap."""
    grown = np.zeros((len(users) + _HASH_BLOCK_ROWS, users.shape[1]))
    grown[: len(users)] = users
    grown[-1] = 0.5
    return grown


def zero_one_entry(users: np.ndarray) -> np.ndarray:
    users = users.copy()
    users[MIDDLE_ROW, 1] = 0.0
    return users


def flip_zero_sign(users: np.ndarray) -> np.ndarray:
    """``0.0 -> -0.0``: equal values, different bytes."""
    users = users.copy()
    assert users[MIDDLE_ROW, 1] == 0.0
    users[MIDDLE_ROW, 1] = -0.0
    return users


def no_change(users: np.ndarray) -> np.ndarray:
    return users.copy()


EDITS = [change_one_row, append_rows, zero_one_entry, flip_zero_sign, no_change]


def assert_id_is_content_hash(snapshot: EmbeddingSnapshot, tmp_path, name: str) -> None:
    assert snapshot.snapshot_id == _content_hash(
        snapshot.user_embeddings, snapshot.item_embeddings
    )
    loaded = load_snapshot(save_snapshot(snapshot, tmp_path / f"{name}.npz"), verify=True)
    assert loaded.snapshot_id == snapshot.snapshot_id
    assert loaded.user_embeddings.tobytes() == snapshot.user_embeddings.tobytes()


class TestDeltaChainIds:
    @pytest.mark.parametrize("origin", ["built", "loaded", "constructed"])
    def test_every_generation_matches_from_scratch_id(self, origin, tmp_path):
        snapshot = make_base(origin, tmp_path)
        assert_id_is_content_hash(snapshot, tmp_path, "gen0")
        for generation, edit in enumerate(EDITS, start=1):
            previous = snapshot
            snapshot = derive(previous, edit(np.array(previous.user_embeddings)), generation)
            assert snapshot.delta_generation == generation
            assert snapshot.item_embeddings is previous.item_embeddings
            assert_id_is_content_hash(snapshot, tmp_path, f"gen{generation}")
            # The id changes iff the tables' bytes do.
            same_bytes = (
                snapshot.user_embeddings.shape == previous.user_embeddings.shape
                and snapshot.user_embeddings.tobytes() == previous.user_embeddings.tobytes()
            )
            assert (snapshot.snapshot_id == previous.snapshot_id) == same_bytes, edit.__name__

    @pytest.mark.parametrize("origin", ["built", "loaded", "constructed"])
    def test_delta_from_a_loaded_delta(self, origin, tmp_path):
        base = make_base(origin, tmp_path)
        first = derive(base, change_one_row(np.array(base.user_embeddings)), 1)
        reloaded = load_snapshot(save_snapshot(first, tmp_path / "first.npz"), verify=True)
        second = derive(reloaded, append_rows(np.array(reloaded.user_embeddings)), 2)
        assert_id_is_content_hash(second, tmp_path, "second")

    @pytest.mark.parametrize(
        "rows", [0, 1, _HASH_BLOCK_ROWS - 1, _HASH_BLOCK_ROWS, _HASH_BLOCK_ROWS + 1]
    )
    def test_block_edges(self, rows, tmp_path):
        users, items = tables()
        base = build_snapshot(users[:rows].reshape(rows, DIM), items)
        assert_id_is_content_hash(base, tmp_path, "base")
        delta = derive(base, append_rows(base.user_embeddings), 1)
        assert_id_is_content_hash(delta, tmp_path, "delta")

    def test_row_counts_separate_users_from_items(self):
        # The same bytes split differently between the two tables.
        users, items = tables()
        joined = np.vstack([users, items])
        moved = _HASH_BLOCK_ROWS
        assert _content_hash(joined[: NUM_USERS + moved], joined[NUM_USERS + moved :]) != (
            _content_hash(users, items)
        )


class TestDeltaFiniteCheck:
    @pytest.fixture()
    def base(self):
        return make_base("built", None)

    def test_nan_in_a_middle_block_rejected(self, base):
        users = np.array(base.user_embeddings)
        users[MIDDLE_ROW, 2] = np.nan
        with pytest.raises(ValueError, match="user_embeddings holds 1 NaN/inf entries"):
            derive(base, users, 1)

    def test_nan_in_every_changed_block_counted(self, base):
        users = append_rows(np.array(base.user_embeddings))
        users[3] = np.inf
        users[MIDDLE_ROW, 0] = np.nan
        users[-2, 1] = -np.inf
        with pytest.raises(ValueError, match=f"user_embeddings holds {DIM + 2} NaN/inf entries"):
            derive(base, users, 1)


class TestArrayDigest:
    """The manifest digest hashes the array buffer itself, as ``tobytes()`` did."""

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(24, dtype=np.float64).reshape(4, 6),
            np.asfortranarray(np.arange(24, dtype=np.float32).reshape(4, 6)),
            np.arange(60, dtype=np.int64).reshape(6, 10)[::2, 3:7],
            np.arange(10, dtype=np.int64)[::3],
            np.empty((0, 5)),
        ],
        ids=["c-order", "f-order", "sliced-2d", "strided-1d", "empty"],
    )
    def test_matches_digest_of_copied_bytes(self, array):
        expected = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        assert _array_digest(array) == expected


class TestFormatVersion:
    def test_version_one_archive_asks_for_re_export(self, tmp_path):
        snapshot = make_base("built", None)
        snapshot.metadata["format_version"] = 1
        path = save_snapshot(snapshot, tmp_path / "old.npz")
        with pytest.raises(ValueError, match="format version 1.*re-export"):
            load_snapshot(path)

    def test_tampered_table_rejected(self, tmp_path):
        snapshot = make_base("built", None)
        users = np.array(snapshot.user_embeddings)
        users[MIDDLE_ROW, 1] = -users[MIDDLE_ROW, 1]
        forged = build_snapshot(users, snapshot.item_embeddings)
        forged.metadata["snapshot_id"] = snapshot.snapshot_id
        with pytest.raises(SnapshotIntegrityError, match="content hash"):
            load_snapshot(save_snapshot(forged, tmp_path / "forged.npz"))


class TestRetention:
    def test_superseded_user_tables_are_released(self):
        users, items = tables()
        service = RecommendationService(build_snapshot(users, items), default_k=5)
        log = EventLog()
        updater = StreamingUpdater(service, log)
        rng = np.random.default_rng(5)
        first_table = None
        for step in range(20):
            user = NUM_USERS + step if step % 3 == 0 else int(rng.integers(0, NUM_USERS))
            service.record_interaction(user, int(rng.integers(0, NUM_ITEMS)))
            assert updater.apply().swapped
            if first_table is None:
                first_table = weakref.ref(service.snapshot.user_embeddings)
        gc.collect()
        assert first_table() is None
