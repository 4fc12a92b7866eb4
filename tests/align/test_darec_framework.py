"""DaRec framework: config handling, loss assembly, plug-and-play behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import AlignedRecommender, DaRec, DaRecConfig
from repro.align.darec import local_structure_loss, match_centers
from repro.align.darec.framework import _assignment_matrices
from repro.cluster import kmeans
from repro.data.sampling import sample_instances
from repro.models import LightGCN
from repro.nn import Adam, Tensor, compile as nn_compile


class TestDaRecConfig:
    def test_defaults_valid(self):
        config = DaRecConfig()
        assert config.weight("orthogonal") == 1.0
        assert config.weight("local") == 1.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DaRecConfig(num_centers=0)
        with pytest.raises(ValueError):
            DaRecConfig(sample_size=0)
        with pytest.raises(ValueError):
            DaRecConfig(uniformity_target="everything")
        with pytest.raises(KeyError):
            DaRecConfig(loss_weights={"frobenius": 1.0})

    def test_without_disables_terms(self):
        config = DaRecConfig().without("global", "local")
        assert config.weight("global") == 0.0
        assert config.weight("local") == 0.0
        assert config.weight("orthogonal") == 1.0

    def test_without_unknown_term_rejected(self):
        with pytest.raises(KeyError):
            DaRecConfig().without("contrastive")

    def test_loss_weights_override(self):
        config = DaRecConfig(loss_weights={"global": 2.5})
        assert config.weight("global") == 2.5


@pytest.fixture()
def darec(lightgcn_backbone, tiny_semantic):
    config = DaRecConfig(shared_dim=12, hidden_dim=12, num_centers=3, sample_size=48, seed=0)
    return DaRec(lightgcn_backbone, tiny_semantic, config)


class TestDaRecLosses:
    def test_loss_components_present(self, darec, bpr_batch):
        components = darec.loss_components(bpr_batch)
        assert set(components) == {"orthogonal", "uniformity", "global", "local"}
        for value in components.values():
            assert np.isfinite(value.item())

    def test_ablated_components_absent(self, lightgcn_backbone, tiny_semantic, bpr_batch):
        config = DaRecConfig(sample_size=32, num_centers=2).without("uniformity", "local")
        module = DaRec(lightgcn_backbone, tiny_semantic, config)
        components = module.loss_components(bpr_batch)
        assert "uniformity" not in components
        assert "local" not in components
        assert "orthogonal" in components

    def test_alignment_loss_scalar_and_finite(self, darec, bpr_batch):
        loss = darec.alignment_loss(bpr_batch)
        assert loss.size == 1
        assert np.isfinite(loss.item())

    def test_alignment_loss_zero_when_everything_disabled(self, lightgcn_backbone, tiny_semantic, bpr_batch):
        config = DaRecConfig(sample_size=32).without("orthogonal", "uniformity", "global", "local")
        module = DaRec(lightgcn_backbone, tiny_semantic, config)
        assert module.alignment_loss(bpr_batch).item() == 0.0

    def test_gradients_reach_backbone_and_projectors(self, darec, bpr_batch):
        loss = darec.alignment_loss(bpr_batch)
        loss.backward()
        assert darec.backbone.user_embedding.weight.grad is not None
        projector_grads = [p.grad for p in darec.projectors.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in projector_grads)

    def test_sample_size_caps_subsample(self, lightgcn_backbone, tiny_semantic):
        config = DaRecConfig(sample_size=16)
        module = DaRec(lightgcn_backbone, tiny_semantic, config)
        nodes = module._sample_nodes()
        assert len(nodes) == 16

    def test_sample_covers_whole_population_when_large(self, lightgcn_backbone, tiny_semantic):
        total = lightgcn_backbone.num_users + lightgcn_backbone.num_items
        config = DaRecConfig(sample_size=10_000)
        module = DaRec(lightgcn_backbone, tiny_semantic, config)
        assert len(module._sample_nodes()) == total

    def test_shared_representations_frozen(self, darec):
        collab, llm = darec.shared_representations(nodes=np.arange(20))
        assert collab.shape == (20, 12)
        assert llm.shape == (20, 12)

    def test_mismatched_semantic_embeddings_rejected(self, lightgcn_backbone, tiny_semantic):
        from repro.llm import SemanticEmbeddings

        wrong = SemanticEmbeddings(
            tiny_semantic.user_embeddings[:-1], tiny_semantic.item_embeddings
        )
        with pytest.raises(ValueError):
            DaRec(lightgcn_backbone, wrong)


class TestDaRecTraining:
    def test_joint_training_reduces_loss(self, tiny_dataset, tiny_semantic):
        from repro.data.sampling import BprSampler

        backbone = LightGCN(tiny_dataset, embedding_dim=16, num_layers=2, seed=0)
        config = DaRecConfig(shared_dim=12, num_centers=3, sample_size=48, seed=0)
        model = AlignedRecommender(backbone, DaRec(backbone, tiny_semantic, config), trade_off=0.1)
        sampler = BprSampler(tiny_dataset, batch_size=256, seed=0)
        optimizer = Adam(model.parameters(), lr=0.01)
        losses = []
        for _ in range(4):
            epoch = []
            for batch in sampler.epoch():
                optimizer.zero_grad()
                loss = model.loss(batch)
                loss.backward()
                optimizer.step()
                epoch.append(loss.item())
            losses.append(np.mean(epoch))
        assert losses[-1] < losses[0]

    def test_identity_matching_config_runs(self, lightgcn_backbone, tiny_semantic, bpr_batch):
        config = DaRecConfig(sample_size=32, num_centers=3, matching="identity")
        module = DaRec(lightgcn_backbone, tiny_semantic, config)
        assert np.isfinite(module.alignment_loss(bpr_batch).item())

    def test_uniformity_on_all_representations_config(self, lightgcn_backbone, tiny_semantic, bpr_batch):
        config = DaRecConfig(sample_size=32, num_centers=2, uniformity_target="all")
        module = DaRec(lightgcn_backbone, tiny_semantic, config)
        components = module.loss_components(bpr_batch)
        assert np.isfinite(components["uniformity"].item())


class TestPreparePureSplit:
    """The draws/loss split behind the compiled execution path."""

    def _fresh_darec(self, backbone, semantic):
        config = DaRecConfig(shared_dim=12, hidden_dim=12, num_centers=3, sample_size=48, seed=0)
        return DaRec(backbone, semantic, config)

    def test_supports_compiled_step_flag(self, darec):
        assert darec.supports_compiled_step is True

    def test_prepared_arrays_are_plain_numpy(self, darec, bpr_batch):
        prepared = darec.prepare_step(bpr_batch)
        assert set(prepared) == {"darec_nodes", "darec_kmeans_seeds"}
        for value in prepared.values():
            assert isinstance(value, np.ndarray)

    def test_prepare_skips_clustering_when_local_disabled(
        self, lightgcn_backbone, tiny_semantic, bpr_batch
    ):
        config = DaRecConfig(shared_dim=12, hidden_dim=12, sample_size=48, seed=0).without("local")
        module = DaRec(lightgcn_backbone, tiny_semantic, config)
        prepared = module.prepare_step(bpr_batch)
        assert set(prepared) == {"darec_nodes"}

    def test_prepare_step_draw_order(self, darec, bpr_batch):
        # The node sample first, then one K-Means seed per side (collab, LLM).
        rng = np.random.default_rng(darec.config.seed)
        total = darec.backbone.num_users + darec.backbone.num_items
        nodes = sample_instances(total, darec.config.sample_size, rng)
        seeds = [rng.integers(1 << 31), rng.integers(1 << 31)]
        prepared = darec.prepare_step(bpr_batch)
        np.testing.assert_array_equal(prepared["darec_nodes"], nodes)
        np.testing.assert_array_equal(prepared["darec_kmeans_seeds"], seeds)
        assert darec._rng.bit_generator.state == rng.bit_generator.state

    def test_split_matches_alignment_loss_and_gradients(
        self, lightgcn_backbone, tiny_semantic, bpr_batch
    ):
        # Two identical modules on the same RNG stream: the delegating
        # alignment_loss and an explicit prepare + pure call must agree
        # bitwise, gradients included.
        module_a = self._fresh_darec(lightgcn_backbone, tiny_semantic)
        module_b = self._fresh_darec(lightgcn_backbone, tiny_semantic)
        loss_a = module_a.alignment_loss(bpr_batch)
        prepared = module_b.prepare_step(bpr_batch)
        loss_b = module_b.pure_alignment_loss(bpr_batch, prepared)
        assert loss_a.item() == loss_b.item()
        loss_a.backward()
        grads_a = {id(p): p.grad.copy() for p in lightgcn_backbone.parameters()}
        for param in lightgcn_backbone.parameters():
            param.zero_grad()
        loss_b.backward()
        for param in lightgcn_backbone.parameters():
            np.testing.assert_array_equal(param.grad, grads_a[id(param)])

    def test_local_term_matches_gathered_mean_centres(self, darec, bpr_batch):
        # Reference for Eq. (6-10): each matched centre is the mean of its
        # cluster's gathered member rows (the frozen K-Means centre when the
        # cluster is empty).  The objective's assignment-matrix product only
        # reorders a few float additions, so the totals agree to rounding.
        prepared = darec.prepare_step(bpr_batch)
        components = darec.loss_components(bpr_batch, prepared)
        reps = darec.disentangle(prepared["darec_nodes"])
        k = darec.config.num_centers
        centres = []
        for shared, seed in zip((reps.collab_shared, reps.llm_shared), prepared["darec_kmeans_seeds"]):
            result = kmeans(shared.data, k, max_iterations=darec.config.kmeans_iterations, seed=int(seed))
            rows = []
            for cluster in range(k):
                members = np.where(result.labels == cluster)[0]
                if len(members):
                    rows.append(shared.take_rows(members).mean(axis=0, keepdims=True))
                else:
                    rows.append(Tensor(result.centers[cluster]).reshape(1, -1))
            centres.append(Tensor.concat(rows, axis=0))
        collab_order, llm_order = match_centers(
            centres[0].data, centres[1].data, strategy=darec.config.matching
        )
        local = local_structure_loss(centres[0].take_rows(collab_order), centres[1].take_rows(llm_order))
        assert components["local"].item() == pytest.approx(local.item(), rel=1e-9)
        expected = sum(
            (local if term == "local" else value).item() * darec.config.weight(term)
            for term, value in components.items()
        )
        actual = darec.pure_alignment_loss(bpr_batch, prepared).item()
        assert actual == pytest.approx(expected, rel=1e-9)

    def test_replayed_step_propagates_only_inside_the_replay(
        self, lightgcn_backbone, tiny_semantic, bpr_batch, monkeypatch
    ):
        # K-Means reads the replay's own forward values, so after the trace
        # no Python-side propagation of the backbone runs at all.
        model = AlignedRecommender(
            lightgcn_backbone, self._fresh_darec(lightgcn_backbone, tiny_semantic), trade_off=0.1
        )
        step = nn_compile(model.build_step_fn())
        params = list(model.parameters())
        calls = []
        propagate = lightgcn_backbone.propagate
        monkeypatch.setattr(lightgcn_backbone, "propagate", lambda: calls.append(1) or propagate())
        step(params, model.make_step_inputs(bpr_batch))
        traced = len(calls)
        assert traced > 0
        for _ in range(3):
            step(params, model.make_step_inputs(bpr_batch))
        assert (step.stats.traces, step.stats.replays) == (1, 4)
        assert len(calls) == traced


def loop_assignment_matrices(labels, fallback_centers, k):
    """One cluster at a time: the form the vectorised version replaced."""
    assign = np.zeros((k, len(labels)))
    fallback = np.zeros((k, fallback_centers.shape[1]))
    for cluster in range(k):
        members = np.where(labels == cluster)[0]
        if len(members):
            assign[cluster, members] = 1.0 / len(members)
        else:
            fallback[cluster] = fallback_centers[cluster]
    return assign, fallback


class TestAssignmentMatrices:
    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0, 1, 2, 0, 1, 2, 2]),
            np.array([3, 3, 0, 3, 0, 3, 3]),  # clusters 1 and 2 are empty
            np.random.default_rng(0).integers(0, 4, size=64),
            np.array([2]),
        ],
        ids=["balanced", "empty-clusters", "darec-shape", "single-point"],
    )
    def test_matches_loop_version(self, labels):
        k = 4
        centres = np.random.default_rng(1).normal(size=(k, 16))
        assign, fallback = _assignment_matrices(labels, centres, k)
        expected_assign, expected_fallback = loop_assignment_matrices(labels, centres, k)
        assert np.array_equal(assign, expected_assign)
        assert np.array_equal(fallback, expected_fallback)
