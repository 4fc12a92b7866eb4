"""Functional building blocks shared across models and alignment losses.

All functions operate on :class:`repro.nn.tensor.Tensor` objects and are
expressed as compositions of tape-recorded primitives so they remain
differentiable end-to-end.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

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


def l2_regularization(*tensors: Tensor) -> Tensor:
    """Half sum-of-squares regulariser averaged over the batch dimension."""
    total: Tensor | None = None
    batch = max(t.shape[0] for t in tensors) if tensors else 1
    for tensor in tensors:
        term = (tensor * tensor).sum()
        total = term if total is None else total + term
    assert total is not None
    return total * (0.5 / batch)


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian Personalised Ranking loss (the paper's ``L_base`` for all backbones)."""
    return softplus(neg_scores - pos_scores).mean()


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
