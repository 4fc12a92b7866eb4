"""AutoCF: automated self-supervision via masked graph reconstruction (Xia et al. 2023).

AutoCF masks a fraction of the observed interactions, propagates over the
reduced graph and asks the model to reconstruct the masked links, combining
this generative objective with a contrastive term between the masked view and
the full-graph view.  The masking schedule is refreshed every epoch.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..data.interactions import InteractionDataset
from ..data.sampling import BprBatch
from ..graph.adjacency import build_normalized_adjacency
from ..graph.augment import masked_interaction_matrix
from ..nn import Tensor, functional as F, sparse_dense_matmul
from .base import GraphRecommender, Tables

__all__ = ["AutoCF"]


class AutoCF(GraphRecommender):
    name = "autocf"
    # Per-step randomness / data-dependent graph shapes: cannot be traced.
    trace_static = False

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        mask_rate: float = 0.2,
        reconstruction_weight: float = 0.3,
        ssl_weight: float = 0.1,
        ssl_temperature: float = 0.2,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim, num_layers, l2_weight, seed)
        self.mask_rate = mask_rate
        self.reconstruction_weight = reconstruction_weight
        self.ssl_weight = ssl_weight
        self.ssl_temperature = ssl_temperature
        self._masked_adjacency: sp.csr_matrix = self.adjacency
        self._masked_pairs = np.empty((0, 2), dtype=np.int64)
        self.on_epoch_start()

    def on_epoch_start(self) -> None:
        reduced, masked_pairs = masked_interaction_matrix(self.dataset, self.mask_rate, self.rng)
        self._masked_adjacency = build_normalized_adjacency(self.dataset, interaction_matrix=reduced)
        self._masked_pairs = masked_pairs

    def _propagate_with(self, adjacency) -> Tensor:
        joint = self._joint_embeddings()
        layers = [joint]
        current = joint
        for _ in range(self.num_layers):
            current = sparse_dense_matmul(adjacency, current)
            layers.append(current)
        stacked = layers[0]
        for layer in layers[1:]:
            stacked = stacked + layer
        return stacked * (1.0 / len(layers))

    def propagate(self) -> Tables:
        return self._split(self._propagate_with(self.adjacency))

    def _reconstruction_loss(self) -> Tensor:
        """Binary cross-entropy on the masked links against random negatives."""
        if len(self._masked_pairs) == 0:
            return Tensor(0.0)
        users_t, items_t = self._split(self._propagate_with(self._masked_adjacency))
        sample = self._masked_pairs
        if len(sample) > 512:
            chosen = self.rng.choice(len(sample), size=512, replace=False)
            sample = sample[chosen]
        pos_users = sample[:, 0]
        pos_items = sample[:, 1]
        neg_items = self.rng.integers(0, self.num_items, size=len(sample))
        user_vec = users_t.take_rows(pos_users)
        pos_vec = items_t.take_rows(pos_items)
        neg_vec = items_t.take_rows(neg_items)
        pos_logits = (user_vec * pos_vec).sum(axis=1)
        neg_logits = (user_vec * neg_vec).sum(axis=1)
        logits = Tensor.concat([pos_logits, neg_logits], axis=0)
        labels = np.concatenate([np.ones(len(sample)), np.zeros(len(sample))])
        return F.bce_loss(logits, labels)

    def _ssl_loss(self, batch: BprBatch) -> Tensor:
        full = self._propagate_with(self.adjacency)
        masked = self._propagate_with(self._masked_adjacency)
        users_f, items_f = self._split(full)
        users_m, items_m = self._split(masked)
        unique_users = np.unique(batch.users)
        unique_items = np.unique(batch.pos_items)
        user_loss = F.info_nce(
            users_f.take_rows(unique_users), users_m.take_rows(unique_users), self.ssl_temperature
        )
        item_loss = F.info_nce(
            items_f.take_rows(unique_items), items_m.take_rows(unique_items), self.ssl_temperature
        )
        return user_loss + item_loss

    def bpr_step(self, batch: BprBatch, tables: Tables | None = None) -> Tensor:
        loss = super().bpr_step(batch, tables)
        if self.reconstruction_weight:
            loss = loss + self.reconstruction_weight * self._reconstruction_loss()
        if self.ssl_weight:
            loss = loss + self.ssl_weight * self._ssl_loss(batch)
        return loss
