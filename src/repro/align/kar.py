"""KAR baseline: open-world knowledge augmentation (Xi et al. 2023).

KAR does not align representation spaces; it injects the LLM knowledge into
the recommender through adapter networks whose output is *added* to the
collaborative embeddings before scoring.  It therefore implements the
``transform_representations`` hook rather than contributing a contrastive
loss, plus a light regulariser keeping the adapters from dominating.
"""

from __future__ import annotations

import numpy as np

from ..data.sampling import BprBatch
from ..llm.provider import SemanticEmbeddings
from ..models.base import BaseRecommender, Tables
from ..nn import MLP, Tensor, functional as F
from .base import AlignmentModule

__all__ = ["KAR"]


class KAR(AlignmentModule):
    name = "kar"

    def __init__(
        self,
        backbone: BaseRecommender,
        semantic: SemanticEmbeddings,
        hidden_dim: int = 64,
        blend: float = 0.3,
        seed: int = 0,
    ) -> None:
        super().__init__(backbone, semantic)
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must lie in [0, 1]")
        self.blend = blend
        rng = np.random.default_rng(seed)
        self.user_adapter = MLP(
            in_features=semantic.dim,
            hidden_features=[hidden_dim],
            out_features=backbone.output_dim,
            activation="leaky_relu",
            rng=rng,
        )
        self.item_adapter = MLP(
            in_features=semantic.dim,
            hidden_features=[hidden_dim],
            out_features=backbone.output_dim,
            activation="leaky_relu",
            rng=rng,
        )

    def transform_representations(self, users: Tensor, items: Tensor) -> tuple[Tensor, Tensor]:
        user_knowledge = self.user_adapter(Tensor(self.semantic.user_embeddings))
        item_knowledge = self.item_adapter(Tensor(self.semantic.item_embeddings))
        users = users + self.blend * user_knowledge
        items = items + self.blend * item_knowledge
        return users, items

    def alignment_loss(self, batch: BprBatch, tables: Tables | None = None) -> Tensor:
        """Auxiliary BPR loss computed on the knowledge-augmented scores."""
        users, items = self.backbone.propagate() if tables is None else tables
        users, items = self.transform_representations(users, items)
        user_vec = users.take_rows(batch.users)
        pos_vec = items.take_rows(batch.pos_items)
        neg_vec = items.take_rows(batch.neg_items)
        pos_scores = (user_vec * pos_vec).sum(axis=1)
        neg_scores = (user_vec * neg_vec).sum(axis=1)
        return F.bpr_loss(pos_scores, neg_scores)
