"""Plug-and-play alignment interface.

An :class:`AlignmentModule` attaches to any backbone from :mod:`repro.models`
and contributes (a) an auxiliary loss added to the backbone's own objective
with trade-off weight λ (paper Eq. 11) and, optionally, (b) a representation
transform applied before scoring (used by KAR-style augmentation methods).

:class:`AlignedRecommender` is the composite the trainer and the evaluation
protocol operate on — it behaves exactly like a backbone.
"""

from __future__ import annotations

import numpy as np

from ..data.sampling import BprBatch
from ..llm.provider import SemanticEmbeddings
from ..models.base import BaseRecommender, Tables
from ..nn import Module, Tensor, no_grad

__all__ = ["AlignmentModule", "AlignedRecommender"]


class AlignmentModule(Module):
    """Base class for LLM-to-collaborative-model alignment strategies."""

    name = "identity"

    def __init__(self, backbone: BaseRecommender, semantic: SemanticEmbeddings) -> None:
        super().__init__()
        if semantic.num_users != backbone.num_users or semantic.num_items != backbone.num_items:
            raise ValueError(
                "semantic embeddings do not match the dataset: "
                f"({semantic.num_users}, {semantic.num_items}) vs "
                f"({backbone.num_users}, {backbone.num_items})"
            )
        self.backbone = backbone
        self.semantic = semantic

    #: Whether this module implements the :meth:`prepare_step` /
    #: :meth:`pure_alignment_loss` pair that lets :func:`repro.nn.compile`
    #: trace the loss.  Modules whose loss draws per-step randomness inside
    #: the loss or builds data-dependent graph shapes keep the default
    #: ``False`` and train eagerly through :meth:`alignment_loss`.
    supports_compiled_step = False

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def alignment_loss(self, batch: BprBatch, tables: Tables | None = None) -> Tensor:
        """Auxiliary loss for one mini-batch (default: nothing).

        ``tables`` is the step's ``backbone.propagate()`` result, shared with
        the backbone's BPR term; ``None`` propagates here.
        """
        return Tensor(0.0)

    def prepare_step(self, batch: BprBatch) -> dict[str, np.ndarray]:
        """The step's random draws, as named input arrays.

        Runs *outside* the traced program, once per step, and should do
        nothing but draw: sub-sampled node ids, seeds.  Work that depends on
        forward values (clustering the current representations, say) belongs
        in :meth:`pure_alignment_loss`, as a :meth:`Tensor.host
        <repro.nn.tensor.Tensor.host>` op when it is not differentiable, so
        the replay computes it from its own buffers instead of a second
        forward pass here.
        """
        return {}

    def pure_alignment_loss(self, batch: BprBatch, prepared: dict, tables: Tables | None = None) -> Tensor:
        """Trace-safe loss: every step-varying value arrives via arguments.

        ``batch`` fields and ``prepared`` values are tensors when tracing, and
        the loss must be a deterministic function of them, the step's
        ``tables`` and the parameters (host ops included).  Only modules with
        ``supports_compiled_step = True`` need to implement this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a compiled step"
        )

    def transform_representations(self, users: Tensor, items: Tensor) -> tuple[Tensor, Tensor]:
        """Optionally modify the backbone representations before scoring."""
        return users, items

    def on_epoch_start(self) -> None:
        """Per-epoch hook (e.g. refresh sub-sampling seeds)."""

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def batch_node_indices(self, batch: BprBatch) -> np.ndarray:
        """Joint (user-first) node indices touched by a BPR batch."""
        users = np.unique(batch.users)
        items = np.unique(np.concatenate([batch.pos_items, batch.neg_items]))
        return np.concatenate([users, items + self.backbone.num_users])

    def collaborative_table(self, tables: Tables | None) -> Tensor:
        """``E_C``, the joint (user-first) table of this step's ``tables``.

        ``None`` propagates here (:meth:`BaseRecommender.representations`).
        """
        return self.backbone.representations() if tables is None else tables.joint

    def semantic_matrix(self) -> np.ndarray:
        """Joint LLM-side embedding matrix (users stacked above items)."""
        return self.semantic.concatenated()


class AlignedRecommender(Module):
    """Backbone + alignment framework, optimised jointly (paper Eq. 11)."""

    def __init__(
        self,
        backbone: BaseRecommender,
        alignment: AlignmentModule | None = None,
        trade_off: float = 0.1,
    ) -> None:
        super().__init__()
        if trade_off < 0:
            raise ValueError("trade_off must be non-negative")
        self.backbone = backbone
        self.alignment = alignment
        self.trade_off = trade_off

    @property
    def name(self) -> str:
        align_name = self.alignment.name if self.alignment is not None else "none"
        return f"{self.backbone.name}+{align_name}"

    @property
    def dataset(self):
        return self.backbone.dataset

    def on_epoch_start(self) -> None:
        self.backbone.on_epoch_start()
        if self.alignment is not None:
            self.alignment.on_epoch_start()

    def loss(self, batch: BprBatch) -> Tensor:
        """Joint objective ``L_base + λ · L_align`` for one mini-batch.

        The backbone propagates once; both terms read those tables.
        """
        tables = self.backbone.propagate()
        total = self.backbone.bpr_step(batch, tables)
        if self.alignment is not None and self.trade_off:
            total = total + self.trade_off * self.alignment.alignment_loss(batch, tables)
        return total

    # ------------------------------------------------------------------ #
    # Compiled execution (repro.nn.compile)
    # ------------------------------------------------------------------ #
    def supports_compiled_step(self) -> bool:
        """Whether :meth:`build_step_fn` produces a traceable step."""
        if not getattr(self.backbone, "trace_static", False):
            return False
        if self.alignment is None or not self.trade_off:
            return True
        return bool(self.alignment.supports_compiled_step)

    def make_step_inputs(self, batch: BprBatch) -> dict[str, np.ndarray]:
        """Per-step input arrays for the compiled step (impure half).

        Includes the BPR triplet arrays plus whatever the alignment module's
        :meth:`AlignmentModule.prepare_step` contributes (sub-sampled nodes,
        seeds, ...).
        """
        inputs: dict[str, np.ndarray] = {
            "users": np.asarray(batch.users),
            "pos_items": np.asarray(batch.pos_items),
            "neg_items": np.asarray(batch.neg_items),
        }
        if self.alignment is not None and self.trade_off:
            inputs.update(self.alignment.prepare_step(batch))
        return inputs

    def build_step_fn(self):
        """A ``step_fn(params, inputs) -> loss`` suitable for ``nn.compile``.

        The returned function reconstructs a :class:`BprBatch` whose fields
        are input *tensors* (so every gather inside ``bpr_step`` becomes a
        dynamic-index op) and routes the alignment term through the trace-safe
        :meth:`AlignmentModule.pure_alignment_loss`.  As in :meth:`loss`, the
        backbone propagates once per step.
        """

        def step_fn(params, inputs):
            batch = BprBatch(inputs["users"], inputs["pos_items"], inputs["neg_items"])
            tables = self.backbone.propagate()
            total = self.backbone.bpr_step(batch, tables)
            if self.alignment is not None and self.trade_off:
                total = total + self.trade_off * self.alignment.pure_alignment_loss(batch, inputs, tables)
            return total

        return step_fn

    def propagate(self) -> tuple[Tensor, Tensor]:
        users, items = self.backbone.propagate()
        if self.alignment is not None:
            users, items = self.alignment.transform_representations(users, items)
        return users, items

    def score_all(self) -> np.ndarray:
        with no_grad():
            users, items = self.propagate()
            return users.data @ items.data.T

    def representations(self) -> Tensor:
        users, items = self.propagate()
        return Tensor.concat([users, items], axis=0)
