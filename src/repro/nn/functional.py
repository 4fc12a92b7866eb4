"""Functional building blocks shared across models and alignment losses.

All functions operate on :class:`repro.nn.tensor.Tensor` objects and are
expressed as compositions of tape-recorded primitives so they remain
differentiable end-to-end.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _leaf, as_tensor

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "l2_normalize",
    "cosine_similarity",
    "pairwise_cosine",
    "dot_scores",
    "mse_loss",
    "l2_regularization",
    "bpr_loss",
    "bce_loss",
    "cross_entropy_loss",
    "info_nce",
    "softplus",
]


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))`` with exact sigmoid gradient."""
    return x.softplus()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # The stabilising shift is a constant on the tape (no max-adjoint), but
    # ``amax`` keeps the dataflow visible so compiled replays recompute it.
    shifted = x - x.amax(axis=axis, keepdims=True)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.amax(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows of ``x`` onto the unit sphere: ``x / sqrt(sum(x * x) + eps)``.

    One primitive with a closed-form VJP; its forward runs the NumPy calls of
    the spelled-out chain, so values match ``x / ((x * x).sum(...) + eps) ** 0.5``.
    """
    return Tensor._apply("l2_normalize", as_tensor(x), ctx=(axis, np.float64(eps)))


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Row-wise cosine similarity between two equally shaped tensors."""
    return (l2_normalize(a, axis=axis) * l2_normalize(b, axis=axis)).sum(axis=axis)


def pairwise_cosine(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity matrix between rows of ``a`` and ``b``."""
    return l2_normalize(a) @ l2_normalize(b).T


def dot_scores(user_embeddings: Tensor, item_embeddings: Tensor) -> Tensor:
    """Full interaction score matrix ``U @ I^T`` used by the ranking protocol."""
    return user_embeddings @ item_embeddings.T


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    diff = prediction - as_tensor(target)
    return (diff * diff).mean()


def l2_regularization(pairs: list[tuple[Tensor, Tensor]], batch_size: int) -> Tensor:
    """Half sum-of-squares of the table rows a batch uses, averaged over the batch.

    Each pair is a ``(rows, d)`` table and a ``(rows, 1)`` column counting how
    often the batch uses each row: ``0.5 / B · Σ_r c_r ‖E_r‖²`` is the half
    sum of squares of the gathered ``B``-row blocks, without gathering them.
    """
    total: Tensor | None = None
    for table, counts in pairs:
        term = (table * table * counts).sum()
        total = term if total is None else total + term
    assert total is not None
    return total * (0.5 / batch_size)


def bpr_loss(users: Tensor, items: Tensor, user_ids, pos_ids, neg_ids) -> Tensor:
    """Bayesian Personalised Ranking loss (the paper's ``L_base`` for all backbones).

    ``mean(softplus(s_neg - s_pos))`` with ``s = <users[u], items[i]>`` over a
    batch of ``(user, positive, negative)`` ids.  One primitive: it gathers
    the user rows once and the positive and negative item rows together, and
    its VJP scatters one gradient per table.  The ids may be arrays or index
    tensors (a compiled step's inputs); they take no gradient.
    """
    ids = [index if isinstance(index, Tensor) else _leaf(index) for index in (user_ids, pos_ids, neg_ids)]
    return Tensor._apply("bpr_loss", users, items, *ids)


def bce_loss(logits: Tensor, labels: np.ndarray | Tensor) -> Tensor:
    labels = as_tensor(labels)
    probs = logits.sigmoid()
    return -(labels * probs.log() + (1.0 - labels) * (1.0 - probs).log()).mean()


def cross_entropy_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Categorical cross-entropy over integer class targets."""
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(logits.shape[0])
    picked = log_probs[rows, np.asarray(targets, dtype=np.int64)]
    return -picked.mean()


def info_nce(anchor: Tensor, positive: Tensor, temperature: float = 0.2) -> Tensor:
    """InfoNCE contrastive loss with in-batch negatives.

    Used by the SGL/SimGCL self-supervised objectives and by the RLMRec-Con
    baseline that contrasts collaborative and LLM representations.
    """
    anchor = l2_normalize(anchor)
    positive = l2_normalize(positive)
    logits = (anchor @ positive.T) * (1.0 / temperature)
    targets = np.arange(anchor.shape[0])
    return cross_entropy_loss(logits, targets)
