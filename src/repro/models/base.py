"""Common interface for collaborative filtering backbones.

Every backbone exposes the same minimal surface so that the plug-and-play
alignment frameworks (:mod:`repro.align`) can wrap any of them:

``propagate()``
    returns the full user and item embedding tables *on the autograd tape*
    after whatever message passing the backbone performs, as :class:`Tables`;
``bpr_step(batch, tables)``
    returns the backbone's own training loss ``L_base`` (BPR + regularisation
    + any self-supervised terms) for one mini-batch, read from one step's
    ``propagate()`` result (the alignment term reads the same one);
``score_all()``
    returns the dense user × item score matrix used by the all-ranking
    evaluation protocol (gradient-free).
"""

from __future__ import annotations

import numpy as np

from ..data.interactions import InteractionDataset
from ..data.sampling import BprBatch
from ..graph.adjacency import build_normalized_adjacency
from ..nn import Embedding, Module, Tensor, functional as F, no_grad

__all__ = ["BaseRecommender", "GraphRecommender", "Tables"]


class Tables:
    """One propagation's user and item tables; unpacks as ``users, items``.

    ``joint`` is the user-first stack of both, the ``E_C`` that alignment
    modules gather rows from.  Graph backbones propagate that stack and split
    it, so they pass it along; otherwise the first read concatenates the two.
    """

    __slots__ = ("users", "items", "_joint")

    def __init__(self, users: Tensor, items: Tensor, joint: Tensor | None = None) -> None:
        self.users = users
        self.items = items
        self._joint = joint

    def __iter__(self):
        return iter((self.users, self.items))

    @property
    def joint(self) -> Tensor:
        if self._joint is None:
            self._joint = Tensor.concat([self.users, self.items], axis=0)
        return self._joint


class BaseRecommender(Module):
    """Abstract recommender over an :class:`InteractionDataset`."""

    name = "base"

    #: Whether :meth:`bpr_step` computes the same dataflow graph on every call
    #: (given fixed batch shapes), so :func:`repro.nn.compile` can trace it
    #: once and replay it.  Backbones that draw per-step randomness or build
    #: data-dependent graph shapes (``np.unique`` on batch ids) set this to
    #: ``False`` and always train eagerly.
    trace_static = True

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        l2_weight: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        self.dataset = dataset
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        self.embedding_dim = embedding_dim
        self.l2_weight = l2_weight
        self.rng = np.random.default_rng(seed)
        self.user_embedding = Embedding(self.num_users, embedding_dim, rng=self.rng)
        self.item_embedding = Embedding(self.num_items, embedding_dim, rng=self.rng)

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    @property
    def output_dim(self) -> int:
        """Width of the representations returned by :meth:`propagate`."""
        return self.embedding_dim

    def propagate(self) -> Tables:
        """Return (user table, item table) after message passing (on the tape)."""
        return Tables(self.user_embedding.all(), self.item_embedding.all())

    def representations(self) -> Tensor:
        """Joint (user-first) representations ``E_C``, propagated afresh (analysis callers)."""
        return self.propagate().joint

    def on_epoch_start(self) -> None:
        """Hook for backbones that refresh augmentation views every epoch."""

    def bpr_step(self, batch: BprBatch, tables: Tables | None = None) -> Tensor:
        """Default ``L_base``: BPR ranking loss + L2 regularisation.

        ``tables`` is this step's :meth:`propagate` result, shared with the
        alignment term; ``None`` propagates here.
        """
        users, items = self.propagate() if tables is None else tables
        loss = F.bpr_loss(users, items, batch.users, batch.pos_items, batch.neg_items)
        if self.l2_weight:
            # L2 on the batch's layer-0 rows: whole tables, rows weighted by use (replays recount).
            user_counts, item_counts = Tensor.host(self._row_counts, batch.users, batch.pos_items, batch.neg_items)
            ego = [(self.user_embedding.all(), user_counts), (self.item_embedding.all(), item_counts)]
            loss = loss + self.l2_weight * F.l2_regularization(ego, len(batch))
        return loss

    def _row_counts(self, users, pos_items, neg_items) -> tuple[np.ndarray, np.ndarray]:
        """How often a batch uses each user and each item row, as ``(rows, 1)`` columns."""
        items = np.bincount(pos_items, minlength=self.num_items) + np.bincount(neg_items, minlength=self.num_items)
        return np.bincount(users, minlength=self.num_users)[:, None], items[:, None]

    def score_all(self) -> np.ndarray:
        """Dense score matrix for the all-ranking protocol (no gradients)."""
        with no_grad():
            users, items = self.propagate()
            return users.data @ items.data.T

    def embedding_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw (pre-propagation) embedding tables as NumPy arrays."""
        return self.user_embedding.weight.data, self.item_embedding.weight.data


class GraphRecommender(BaseRecommender):
    """Base class for backbones that propagate over the user-item graph."""

    def __init__(
        self,
        dataset: InteractionDataset,
        embedding_dim: int = 64,
        num_layers: int = 2,
        l2_weight: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__(dataset, embedding_dim=embedding_dim, l2_weight=l2_weight, seed=seed)
        if num_layers < 0:
            raise ValueError("num_layers must be non-negative")
        self.num_layers = num_layers
        self.adjacency = build_normalized_adjacency(dataset)

    def _joint_embeddings(self) -> Tensor:
        return Tensor.concat([self.user_embedding.all(), self.item_embedding.all()], axis=0)

    def _split(self, joint: Tensor) -> Tables:
        users = joint[: self.num_users]
        items = joint[self.num_users : self.num_users + self.num_items]
        return Tables(users, items, joint)
