"""Embedding snapshot export, persistence and model-free loading."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.align import AlignedRecommender
from repro.serve import (
    SNAPSHOT_FORMAT_VERSION,
    EmbeddingSnapshot,
    build_snapshot,
    create_snapshot,
    load_snapshot,
    save_snapshot,
)


class TestCreateSnapshot:
    def test_scores_match_score_all(self, lightgcn_backbone):
        snapshot = create_snapshot(lightgcn_backbone)
        reconstructed = snapshot.user_embeddings @ snapshot.item_embeddings.T
        np.testing.assert_allclose(reconstructed, lightgcn_backbone.score_all())

    def test_works_with_aligned_recommender(self, lightgcn_backbone):
        model = AlignedRecommender(lightgcn_backbone, None)
        snapshot = create_snapshot(model)
        np.testing.assert_allclose(
            snapshot.user_embeddings @ snapshot.item_embeddings.T, model.score_all()
        )
        assert snapshot.metadata["model"] == model.name

    def test_metadata_fields(self, lightgcn_backbone, tiny_dataset):
        snapshot = create_snapshot(lightgcn_backbone)
        meta = snapshot.metadata
        assert meta["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert meta["dataset"] == tiny_dataset.name
        assert meta["num_users"] == tiny_dataset.num_users
        assert meta["num_items"] == tiny_dataset.num_items
        assert len(meta["snapshot_id"]) == 16

    def test_snapshot_id_tracks_content(self, tiny_dataset):
        rng = np.random.default_rng(0)
        users = rng.normal(size=(5, 4))
        items = rng.normal(size=(6, 4))
        a = build_snapshot(users, items)
        b = build_snapshot(users, items)
        c = build_snapshot(users + 1e-9, items)
        assert a.snapshot_id == b.snapshot_id
        assert a.snapshot_id != c.snapshot_id

    def test_train_csr_matches_dataset(self, lightgcn_backbone, tiny_dataset):
        snapshot = create_snapshot(lightgcn_backbone)
        for user, items in tiny_dataset.train_positives.items():
            np.testing.assert_array_equal(snapshot.train_items(user), items)

    def test_popularity_counts(self, lightgcn_backbone, tiny_dataset):
        snapshot = create_snapshot(lightgcn_backbone)
        expected = np.bincount(tiny_dataset.train[:, 1], minlength=tiny_dataset.num_items)
        np.testing.assert_array_equal(snapshot.item_popularity, expected)


class TestRoundtrip:
    def test_save_load(self, lightgcn_backbone, tmp_path):
        snapshot = create_snapshot(lightgcn_backbone)
        path = save_snapshot(snapshot, tmp_path / "model.npz")
        loaded = load_snapshot(path)
        np.testing.assert_array_equal(loaded.user_embeddings, snapshot.user_embeddings)
        np.testing.assert_array_equal(loaded.item_embeddings, snapshot.item_embeddings)
        np.testing.assert_array_equal(loaded.train_indptr, snapshot.train_indptr)
        np.testing.assert_array_equal(loaded.train_indices, snapshot.train_indices)
        np.testing.assert_array_equal(loaded.item_popularity, snapshot.item_popularity)
        assert loaded.metadata == snapshot.metadata

    def test_suffix_appended(self, lightgcn_backbone, tmp_path):
        snapshot = create_snapshot(lightgcn_backbone)
        path = save_snapshot(snapshot, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_loading_needs_no_model_code(self, lightgcn_backbone, tmp_path):
        """The archive holds plain arrays + JSON — nothing pickled."""
        path = save_snapshot(create_snapshot(lightgcn_backbone), tmp_path / "m.npz")
        with np.load(path, allow_pickle=False) as archive:
            assert set(archive.files) == {
                "user_embeddings",
                "item_embeddings",
                "train_indptr",
                "train_indices",
                "item_popularity",
                "metadata_json",
            }
            json.loads(str(archive["metadata_json"]))

    def test_unknown_format_version_rejected(self, lightgcn_backbone, tmp_path):
        snapshot = create_snapshot(lightgcn_backbone)
        snapshot.metadata["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        path = save_snapshot(snapshot, tmp_path / "future.npz")
        with pytest.raises(ValueError, match="format version"):
            load_snapshot(path)

    def test_non_snapshot_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not a repro embedding snapshot"):
            load_snapshot(path)


class TestBuildSnapshot:
    def test_without_history(self):
        snapshot = build_snapshot(np.ones((3, 2)), np.ones((4, 2)))
        assert snapshot.num_users == 3
        assert snapshot.num_items == 4
        assert snapshot.train_indices.size == 0
        assert not snapshot.has_history(0)
        np.testing.assert_array_equal(snapshot.item_popularity, np.zeros(4))

    def test_duplicate_pairs_deduplicated_in_csr(self):
        pairs = np.array([[0, 1], [0, 1], [1, 0]])
        snapshot = build_snapshot(np.ones((2, 2)), np.ones((3, 2)), train_pairs=pairs)
        np.testing.assert_array_equal(snapshot.train_items(0), [1])
        np.testing.assert_array_equal(snapshot.train_items(1), [0])
        # popularity keeps raw counts
        np.testing.assert_array_equal(snapshot.item_popularity, [1, 2, 0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensionality"):
            EmbeddingSnapshot(
                user_embeddings=np.ones((2, 3)),
                item_embeddings=np.ones((2, 4)),
                train_indptr=np.zeros(3, dtype=np.int64),
                train_indices=np.empty(0, dtype=np.int64),
                item_popularity=np.zeros(2),
            )

    def test_nan_user_row_rejected(self):
        users = np.ones((3, 2))
        users[1] = np.nan
        with pytest.raises(ValueError, match="user_embeddings holds 2 NaN/inf entries"):
            build_snapshot(users, np.ones((4, 2)))

    def test_inf_item_entry_rejected(self):
        items = np.ones((4, 2))
        items[2, 1] = np.inf
        with pytest.raises(ValueError, match="item_embeddings holds 1 NaN/inf entries"):
            build_snapshot(np.ones((3, 2)), items)


def reference_train_csr(pairs, num_users, num_items):
    """The 2-D ``np.unique(axis=0)`` build the 1-D key build must reproduce."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    popularity = np.bincount(pairs[:, 1], minlength=num_items)
    unique_pairs = np.unique(pairs, axis=0) if len(pairs) else pairs
    counts = np.bincount(unique_pairs[:, 0], minlength=num_users)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr.astype(np.int64), unique_pairs[:, 1].copy(), popularity.astype(np.int64)


class TestTrainCsr:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_two_dimensional_unique(self, seed):
        from repro.serve.snapshot import _train_csr

        rng = np.random.default_rng(seed)
        num_users, num_items = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        size = int(rng.integers(1, 400))
        # Users drawn from the first half only, so the rest have no history;
        # with this many draws most pairs repeat.
        pairs = np.column_stack(
            [rng.integers(0, max(num_users // 2, 1), size), rng.integers(0, num_items, size)]
        )
        for got, want in zip(_train_csr(pairs, num_users, num_items),
                             reference_train_csr(pairs, num_users, num_items)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_empty_input(self):
        from repro.serve.snapshot import _train_csr

        for got, want in zip(_train_csr(np.empty((0, 2)), 3, 4), reference_train_csr([], 3, 4)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "pair", [(-1, 0), (0, -1), (2, 0), (0, 3), (-1, 5)], ids=str
    )
    def test_out_of_range_ids_rejected(self, pair):
        pairs = np.array([[0, 1], pair])
        with pytest.raises(ValueError):
            build_snapshot(np.ones((2, 2)), np.ones((3, 2)), train_pairs=pairs)


class TestDeltaSnapshot:
    @pytest.fixture()
    def base(self):
        rng = np.random.default_rng(3)
        return build_snapshot(
            rng.normal(size=(4, 6)),
            rng.normal(size=(9, 6)),
            train_pairs=np.array([[0, 1], [1, 2], [2, 3]]),
            model_name="base",
        )

    def make_delta(self, base, num_users=5, event_range=(0, 3)):
        from repro.serve import build_delta_snapshot

        rng = np.random.default_rng(7)
        return build_delta_snapshot(
            base,
            user_embeddings=rng.normal(size=(num_users, base.dim)),
            train_indptr=np.linspace(0, 3, num_users + 1).astype(np.int64),
            train_indices=base.train_indices,
            item_popularity=base.item_popularity,
            event_range=event_range,
        )

    def test_provenance_fields(self, base):
        delta = self.make_delta(base)
        assert delta.is_delta
        assert not base.is_delta
        assert delta.base_snapshot_id == base.snapshot_id
        assert delta.delta_generation == 1
        assert delta.delta_event_range == (0, 3)
        assert delta.snapshot_id != base.snapshot_id

    def test_item_table_shared_with_base(self, base):
        delta = self.make_delta(base)
        assert delta.item_embeddings is base.item_embeddings

    def test_generation_increments_along_chain(self, base):
        delta1 = self.make_delta(base)
        delta2 = self.make_delta(delta1, event_range=(3, 8))
        assert delta2.delta_generation == 2
        assert delta2.base_snapshot_id == delta1.snapshot_id
        assert delta2.delta_event_range == (3, 8)

    def test_metadata_user_count_updated(self, base):
        delta = self.make_delta(base, num_users=7)
        assert delta.metadata["num_users"] == 7
        assert delta.num_users == 7

    def test_invalid_event_range_rejected(self, base):
        from repro.serve import build_delta_snapshot

        with pytest.raises(ValueError, match="event_range"):
            build_delta_snapshot(
                base,
                user_embeddings=base.user_embeddings,
                train_indptr=base.train_indptr,
                train_indices=base.train_indices,
                item_popularity=base.item_popularity,
                event_range=(5, 2),
            )

    def test_nan_fold_in_rejected(self, base):
        from repro.serve import build_delta_snapshot

        # A diverged fold-in solve appends a NaN row for the new user.
        folded = np.vstack([base.user_embeddings, np.full((1, base.dim), np.nan)])
        with pytest.raises(ValueError, match="user_embeddings holds 6 NaN/inf entries"):
            build_delta_snapshot(
                base,
                user_embeddings=folded,
                train_indptr=np.append(base.train_indptr, base.train_indptr[-1]),
                train_indices=base.train_indices,
                item_popularity=base.item_popularity,
                event_range=(0, 1),
            )

    def test_item_table_other_than_the_base_is_still_checked(self, base):
        items = base.item_embeddings.copy()
        items[0, 0] = np.nan
        with pytest.raises(ValueError, match="item_embeddings holds 1 NaN/inf entries"):
            EmbeddingSnapshot(
                user_embeddings=base.user_embeddings,
                item_embeddings=items,
                train_indptr=base.train_indptr,
                train_indices=base.train_indices,
                item_popularity=base.item_popularity,
                base=base,
            )

    def test_delta_round_trips_through_disk(self, base, tmp_path):
        delta = self.make_delta(base)
        path = save_snapshot(delta, tmp_path / "delta.npz")
        loaded = load_snapshot(path)
        assert loaded.is_delta
        assert loaded.base_snapshot_id == base.snapshot_id
        assert loaded.delta_generation == 1
        assert loaded.delta_event_range == (0, 3)
