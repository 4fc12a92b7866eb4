"""DaRec: the disentangled alignment framework (paper Section III, Alg. 1).

One :meth:`DaRec.alignment_loss` call implements one iteration of Algorithm 1:

1. sub-sample N̂ joint user/item instances;
2. disentangle ``E_C`` and ``E_L`` into shared and specific components (Eq. 1);
3. compute the orthogonality (Eq. 2) and uniformity (Eq. 3) regularisers;
4. compute the global structure alignment on the shared components (Eq. 4-5);
5. run K-Means on both shared spaces, adaptively match the preference centres
   (Eq. 7-8) and compute the local structure alignment (Eq. 9-10);
6. return ``L_or + L_uni + L_glo + L_loc`` (the trade-off λ with the backbone
   loss is applied by :class:`repro.align.base.AlignedRecommender`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ...cluster import kmeans
from ...data.sampling import BprBatch, sample_instances
from ...llm.provider import SemanticEmbeddings
from ...models.base import BaseRecommender, Tables
from ...nn import Tensor, no_grad
from ..base import AlignmentModule
from .disentangle import DisentangledProjectors, DisentangledRepresentations
from .losses import (
    global_structure_loss,
    local_structure_loss,
    orthogonality_loss,
    uniformity_loss,
)
from .matching import match_centers

__all__ = ["DaRecConfig", "DaRec"]


@dataclass
class DaRecConfig:
    """Hyper-parameters of the DaRec alignment framework.

    Defaults follow the paper: K in the sweet-spot range [4, 8], λ handled by
    the composite model (0.1), and every loss term enabled with unit weight.
    ``sample_size`` is the paper's N̂ (4096 at paper scale; smaller here because
    the synthetic benchmarks are smaller).
    """

    shared_dim: int = 64
    specific_dim: int | None = None
    hidden_dim: int = 64
    num_centers: int = 4
    sample_size: int = 256
    kmeans_iterations: int = 15
    matching: str = "adaptive"
    orthogonal_weight: float = 1.0
    uniformity_weight: float = 1.0
    global_weight: float = 1.0
    local_weight: float = 1.0
    uniformity_target: str = "specific"
    seed: int = 0
    loss_weights: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_centers <= 0:
            raise ValueError("num_centers must be positive")
        if self.sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if self.uniformity_target not in {"specific", "all"}:
            raise ValueError("uniformity_target must be 'specific' or 'all'")
        for key in self.loss_weights:
            if key not in {"orthogonal", "uniformity", "global", "local"}:
                raise KeyError(f"unknown loss weight '{key}'")

    def weight(self, term: str) -> float:
        defaults = {
            "orthogonal": self.orthogonal_weight,
            "uniformity": self.uniformity_weight,
            "global": self.global_weight,
            "local": self.local_weight,
        }
        return float(self.loss_weights.get(term, defaults[term]))

    def without(self, *terms: str) -> "DaRecConfig":
        """Return a copy with the given loss terms disabled (ablation helper)."""
        weights = dict(self.loss_weights)
        for term in terms:
            if term not in {"orthogonal", "uniformity", "global", "local"}:
                raise KeyError(f"unknown loss term '{term}'")
            weights[term] = 0.0
        return replace(self, loss_weights=weights)


class DaRec(AlignmentModule):
    """Disentangled alignment of a CF backbone with LLM semantic embeddings."""

    name = "darec"
    # prepare_step() makes the step's random draws (node sub-sample, K-Means
    # seeds); everything else, K-Means and centre matching included, is one
    # loss computed from them, so repro.nn.compile can trace the joint step.
    supports_compiled_step = True

    def __init__(
        self,
        backbone: BaseRecommender,
        semantic: SemanticEmbeddings,
        config: DaRecConfig | None = None,
    ) -> None:
        super().__init__(backbone, semantic)
        self.config = config or DaRecConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.projectors = DisentangledProjectors(
            collab_dim=backbone.output_dim,
            llm_dim=semantic.dim,
            shared_dim=self.config.shared_dim,
            specific_dim=self.config.specific_dim,
            hidden_dim=self.config.hidden_dim,
            seed=self.config.seed,
        )

    # ------------------------------------------------------------------ #
    # Disentanglement plumbing
    # ------------------------------------------------------------------ #
    def _sample_nodes(self) -> np.ndarray:
        total = self.backbone.num_users + self.backbone.num_items
        return sample_instances(total, self.config.sample_size, self._rng)

    def disentangle(
        self, nodes: np.ndarray | Tensor | None = None, tables: Tables | None = None
    ) -> DisentangledRepresentations:
        """Disentangled representations of the selected joint nodes (on the tape).

        ``nodes`` is an index array, or an index tensor when it arrives as a
        compiled step input; ``None`` draws a fresh sub-sample.  The N̂ rows
        come straight from the joint table of the step's ``tables``
        (propagated here when ``None``).
        """
        if nodes is None:
            nodes = self._sample_nodes()
        collaborative = self.collaborative_table(tables).take_rows(nodes)
        semantic = self._semantic_tensor().take_rows(nodes)
        return self.projectors(collaborative, semantic)

    def shared_representations(self, nodes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Frozen (NumPy) shared representations, used for analysis and Fig. 6."""
        with no_grad():
            reps = self.disentangle(nodes)
            return reps.collab_shared.data.copy(), reps.llm_shared.data.copy()

    def _semantic_tensor(self) -> Tensor:
        """The full joint semantic matrix as a cached constant tensor."""
        cached = getattr(self, "_semantic_constant", None)
        if cached is None:
            cached = Tensor(self.semantic_matrix())
            self._semantic_constant = cached
        return cached

    # ------------------------------------------------------------------ #
    # The objective
    # ------------------------------------------------------------------ #
    def prepare_step(self, batch: BprBatch) -> dict[str, np.ndarray]:
        """The step's random draws, in a fixed order.

        The N̂-node sub-sample, then — when the local term is active — one
        K-Means seed for the collaborative side and one for the LLM side.
        """
        prepared = {"darec_nodes": self._sample_nodes()}
        if self.config.weight("local"):
            prepared["darec_kmeans_seeds"] = np.array(
                [self._rng.integers(1 << 31), self._rng.integers(1 << 31)]
            )
        return prepared

    def loss_components(
        self, batch: BprBatch | None = None, prepared: dict | None = None, tables: Tables | None = None
    ) -> dict[str, Tensor]:
        """The active DaRec loss terms, unweighted (keys match the paper).

        ``prepared`` holds the step's draws (:meth:`prepare_step`, made here
        when omitted) and ``tables`` the step's propagation (see
        :meth:`disentangle`); :meth:`pure_alignment_loss` is the weighted sum
        of these terms.
        """
        config = self.config
        if prepared is None:
            prepared = self.prepare_step(batch)
        reps = self.disentangle(prepared["darec_nodes"], tables)
        components: dict[str, Tensor] = {}
        if config.weight("orthogonal"):
            components["orthogonal"] = orthogonality_loss(
                reps.llm_specific, reps.llm_shared
            ) + orthogonality_loss(reps.collab_specific, reps.collab_shared)
        if config.weight("uniformity"):
            if config.uniformity_target == "specific":
                components["uniformity"] = uniformity_loss(reps.collab_specific, reps.llm_specific)
            else:
                components["uniformity"] = uniformity_loss(
                    reps.concatenated("collab"), reps.concatenated("llm")
                )
        if config.weight("global"):
            components["global"] = global_structure_loss(reps.collab_shared, reps.llm_shared)
        if config.weight("local"):
            collab_assign, collab_fallback, llm_assign, llm_fallback = Tensor.host(
                self._cluster_structure, reps.collab_shared, reps.llm_shared, prepared["darec_kmeans_seeds"]
            )
            components["local"] = local_structure_loss(
                collab_assign @ reps.collab_shared + collab_fallback,
                llm_assign @ reps.llm_shared + llm_fallback,
            )
        return components

    def pure_alignment_loss(self, batch: BprBatch, prepared: dict, tables: Tables | None = None) -> Tensor:
        """``L_or + L_uni + L_glo + L_loc``, each term weighted; trace-safe."""
        total: Tensor | None = None
        for term, value in self.loss_components(batch, prepared, tables).items():
            weighted = value * self.config.weight(term)
            total = weighted if total is None else total + weighted
        return total if total is not None else Tensor(0.0)

    def alignment_loss(self, batch: BprBatch, tables: Tables | None = None) -> Tensor:
        return self.pure_alignment_loss(batch, self.prepare_step(batch), tables)

    def _cluster_structure(
        self, collab: np.ndarray, llm: np.ndarray, seeds: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """K-Means on both shared spaces and the matching of Eq. (7-8).

        Returns, per side, the **assignment matrix** ``M`` (``k × N̂``, row
        ``c`` holding ``1/|C_c|`` on the members of cluster ``c``) and the
        **fallback matrix** ``F`` (``k × d``, the K-Means centre of an empty
        cluster, zero otherwise), rows in matched order.  ``M @ shared + F``
        is then the matched preference centres, computed on the tape so
        gradients reach the shared encoders.  Runs as a :meth:`Tensor.host`
        op, so it is a pure function of its arguments.
        """
        k = self.config.num_centers
        sides = []
        for data, seed in ((collab, seeds[0]), (llm, seeds[1])):
            result = kmeans(data, k, max_iterations=self.config.kmeans_iterations, seed=int(seed))
            assign, fallback = _assignment_matrices(result.labels, result.centers, k)
            sides.append((assign, fallback, assign @ data + fallback))
        (collab_assign, collab_fallback, collab_centers), (llm_assign, llm_fallback, llm_centers) = sides
        collab_order, llm_order = match_centers(collab_centers, llm_centers, strategy=self.config.matching)
        return (
            collab_assign[collab_order],
            collab_fallback[collab_order],
            llm_assign[llm_order],
            llm_fallback[llm_order],
        )


def _assignment_matrices(
    labels: np.ndarray, fallback_centers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster mean as a matrix: ``assign @ shared + fallback``.

    ``assign[c]`` holds ``1/|C_c|`` on cluster ``c``'s members, so
    ``assign @ shared`` is the per-cluster mean; ``fallback[c]`` is the frozen
    K-Means centre when cluster ``c`` is empty (zero otherwise).
    """
    counts = np.bincount(labels, minlength=k)
    assign = np.zeros((k, len(labels)))
    assign[labels, np.arange(len(labels))] = 1.0 / counts[labels]
    fallback = np.zeros((k, fallback_centers.shape[1]))
    empty = counts == 0
    fallback[empty] = fallback_centers[empty]
    return assign, fallback
