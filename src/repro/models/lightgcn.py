"""LightGCN: linear propagation with layer-averaged embeddings (He et al. 2020)."""

from __future__ import annotations

from ..data.interactions import InteractionDataset
from ..nn import Tensor, sparse_dense_matmul
from .base import GraphRecommender, Tables

__all__ = ["LightGCN"]


class LightGCN(GraphRecommender):
    """Simplified GCN for recommendation: no transforms, no non-linearity.

    The final representation is the mean of the embeddings produced at every
    propagation depth (including layer zero).
    """

    name = "lightgcn"

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim, num_layers, l2_weight, seed)

    def propagate(self) -> Tables:
        joint = self._joint_embeddings()
        layers = [joint]
        current = joint
        for _ in range(self.num_layers):
            current = sparse_dense_matmul(self.adjacency, current)
            layers.append(current)
        stacked = layers[0]
        for layer in layers[1:]:
            stacked = stacked + layer
        averaged = stacked * (1.0 / len(layers))
        return self._split(averaged)
