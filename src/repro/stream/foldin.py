"""Incremental user fold-in against a frozen item embedding table.

A batch-trained snapshot freezes both embedding tables; fold-in answers the
question "what is the best user vector for *this* interaction history, given
the item table we already have?" without touching the items or retraining.

In its full (implicit-feedback ALS) form the objective treats every
*non*-interacted item as a weak zero-target negative, which is what makes a
fold-in vector discriminative rather than merely popular:

``min_u  w0 * sum_{i not in S} (u . v_i)^2
         + (w0 + a) * || V_S u - y ||^2  +  l2 * || u ||^2``

where ``V_S`` is the ``(s, d)`` matrix of interacted item vectors, ``y`` the
per-interaction target weights (1.0 for implicit feedback), ``w0`` the weight
of the implicit negatives and ``a`` the extra confidence on observed pairs.
The negative term needs only the catalogue Gram matrix ``G = V^T V`` — a
``(d, d)`` array precomputed once per frozen item table — so the per-user
solve stays ``O(s d^2 + d^3)`` regardless of catalogue size.  With ``w0 = 0``
(or no Gram supplied) the objective degrades to plain ridge regression on the
positives.

:func:`ridge_fold_in` solves the normal equations in closed form — one
``(d, d)`` solve, exact, and fast enough to run thousands of times per second
at serving dimensionalities.

Existing (warm) users blend the solve with their trained embedding through a
decay factor, so graph-propagation signal the solve cannot see is retained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FoldInConfig",
    "FoldInResult",
    "item_gram",
    "ridge_fold_in",
    "fold_in_user",
]


def item_gram(item_embeddings: np.ndarray) -> np.ndarray:
    """Catalogue Gram matrix ``V^T V`` backing the implicit-negative term.

    Compute once per frozen item table (items never change across delta
    snapshots) and pass to the solvers via ``gram=``.
    """
    items = np.atleast_2d(np.asarray(item_embeddings, dtype=np.float64))
    return items.T @ items


@dataclass(frozen=True)
class FoldInConfig:
    """Knobs of the incremental user update.

    Attributes
    ----------
    l2:
        Ridge regularisation strength of the solve.
    decay:
        Blend weight of the *solved* vector for users that already have a
        trained embedding: ``u_new = (1 - decay) * u_old + decay * u_solved``.
        Brand-new users always take the solved vector verbatim.
    implicit_weight:
        Weight ``w0`` of the implicit zero-target negatives (applied only when
        a catalogue Gram matrix is supplied to the solve; 0 disables the term).
    positive_boost:
        Extra confidence ``a`` on observed interactions relative to the
        implicit negatives.
    """

    l2: float = 0.1
    decay: float = 0.5
    implicit_weight: float = 1.0
    positive_boost: float = 1.0

    def __post_init__(self) -> None:
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if self.implicit_weight < 0:
            raise ValueError("implicit_weight must be non-negative")
        if self.positive_boost <= 0:
            raise ValueError("positive_boost must be positive")


@dataclass(frozen=True)
class FoldInResult:
    """Outcome of one user fold-in.

    ``residual`` is the root-mean-square of ``V u - y`` over the user's
    interactions — how well the frozen item table can explain this history.
    Persistently high residuals across users are a drift symptom (the stream
    no longer looks like the data the items were trained on); the
    :class:`~repro.stream.drift.DriftMonitor` aggregates them.
    """

    user_id: int
    embedding: np.ndarray
    residual: float
    num_interactions: int
    was_new: bool


def _targets(weights: np.ndarray | None, count: int) -> np.ndarray:
    if weights is None:
        return np.ones(count)
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.size != count:
        raise ValueError("weights must have one entry per interacted item")
    return weights


def ridge_fold_in(
    item_vectors: np.ndarray,
    weights: np.ndarray | None = None,
    l2: float = 0.1,
    gram: np.ndarray | None = None,
    implicit_weight: float = 1.0,
    positive_boost: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Closed-form solve of the fold-in objective (see module docstring).

    Parameters
    ----------
    item_vectors:
        ``(s, d)`` embeddings of the items the user interacted with.
    weights:
        Optional per-interaction target scores ``y`` (defaults to all ones).
    l2:
        Regularisation strength.
    gram:
        Optional catalogue Gram matrix from :func:`item_gram`; enables the
        implicit zero-target negatives over the non-interacted items.
    implicit_weight, positive_boost:
        The ``w0`` and ``a`` weights of the objective (``gram=None`` or
        ``implicit_weight=0`` reduces to ridge regression on the positives).

    Returns
    -------
    ``(u, residual)`` — the solved ``(d,)`` user vector and the RMS residual
    ``||V_S u - y|| / sqrt(s)`` over the positives.
    """
    item_vectors = np.atleast_2d(np.asarray(item_vectors, dtype=np.float64))
    count, dim = item_vectors.shape
    if count == 0:
        raise ValueError("cannot fold in a user with no interactions")
    y = _targets(weights, count)
    w0 = implicit_weight if gram is not None else 0.0
    # Normal equations of the weighted objective:
    #   (w0 G + a V_S^T V_S + l2 I) u = (w0 + a) V_S^T y
    # (with w0 = 0 this is plain ridge; a rescales l2's relative strength.)
    system = positive_boost * (item_vectors.T @ item_vectors) + l2 * np.eye(dim)
    rhs = (w0 + positive_boost) * (item_vectors.T @ y)
    if w0 > 0:
        system = system + w0 * np.asarray(gram, dtype=np.float64)
    # lstsq guards the l2 == 0 rank-deficient corner without a separate path.
    if l2 > 0:
        solution = np.linalg.solve(system, rhs)
    else:
        solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(item_vectors @ solution - y) / np.sqrt(count))
    return solution, residual


def fold_in_user(
    user_id: int,
    item_vectors: np.ndarray,
    previous: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    config: FoldInConfig | None = None,
    gram: np.ndarray | None = None,
) -> FoldInResult:
    """Fold one user's history into the frozen item space.

    ``previous`` is the user's existing trained embedding, if any: the solved
    vector is blended with it by ``config.decay`` so repeated small updates
    behave like an exponential moving average.  Brand-new users
    (``previous is None``) take the solved vector directly.  Pass the
    catalogue ``gram`` (see :func:`item_gram`) to enable the implicit-negative
    term.
    """
    config = config or FoldInConfig()
    item_vectors = np.atleast_2d(np.asarray(item_vectors, dtype=np.float64))
    solved, residual = ridge_fold_in(
        item_vectors,
        weights=weights,
        l2=config.l2,
        gram=gram,
        implicit_weight=config.implicit_weight,
        positive_boost=config.positive_boost,
    )
    was_new = previous is None
    if was_new:
        embedding = solved
    else:
        previous = np.asarray(previous, dtype=np.float64).ravel()
        embedding = (1.0 - config.decay) * previous + config.decay * solved
    return FoldInResult(
        user_id=int(user_id),
        embedding=embedding,
        residual=residual,
        num_interactions=item_vectors.shape[0],
        was_new=was_new,
    )
