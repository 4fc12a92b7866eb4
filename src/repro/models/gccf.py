"""GCCF: linear residual graph collaborative filtering (Chen et al. 2020).

GCCF removes the non-linearities of NGCF and concatenates the embeddings of
every propagation depth (a residual preference structure) instead of averaging
them as LightGCN does.
"""

from __future__ import annotations

from ..data.interactions import InteractionDataset
from ..nn import Tensor, sparse_dense_matmul
from .base import GraphRecommender, Tables

__all__ = ["GCCF"]


class GCCF(GraphRecommender):
    name = "gccf"

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim, num_layers, l2_weight, seed)

    @property
    def output_dim(self) -> int:
        """GCCF concatenates layers, so its output width grows with depth."""
        return self.embedding_dim * (self.num_layers + 1)

    def propagate(self) -> Tables:
        joint = self._joint_embeddings()
        layers = [joint]
        current = joint
        for _ in range(self.num_layers):
            current = sparse_dense_matmul(self.adjacency, current)
            layers.append(current)
        concatenated = Tensor.concat(layers, axis=1)
        return self._split(concatenated)
