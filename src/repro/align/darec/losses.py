"""DaRec loss terms (paper Eq. 2-5 and 9-10).

* :func:`orthogonality_loss` — Eq. (2): squared cosine similarity between the
  specific and shared component of each modality.
* :func:`uniformity_loss` — Eq. (3): log of the mean pairwise Gaussian
  potential of the (unit-normalised) specific representations, keeping them
  informative instead of collapsing to a constant.
* :func:`global_structure_loss` — Eq. (4)-(5): Frobenius distance between the
  pairwise similarity matrices of the two shared representations.
* :func:`local_structure_loss` — Eq. (9)-(10): cosine similarities between the
  (matched) preference centres; diagonal pulled to one, off-diagonal pushed to
  zero.

Each term is one primitive of :mod:`repro.nn.primitives`
(``squared_cosine_mean``, ``gaussian_potential``, ``similarity_gap``,
``center_alignment``) with a closed-form VJP, so a training step records one
tape node per term and modality instead of a chain of small ops.  Every
kernel normalises rows as ``F.l2_normalize`` does.
"""

from __future__ import annotations

from ...nn import Tensor, as_tensor, functional as F

__all__ = [
    "orthogonality_loss",
    "uniformity_loss",
    "pairwise_gaussian_potential",
    "global_structure_loss",
    "local_structure_loss",
    "center_cosine_matrix",
]


def orthogonality_loss(specific: Tensor, shared: Tensor) -> Tensor:
    """Mean squared cosine similarity between paired specific/shared rows."""
    if specific.shape[0] != shared.shape[0]:
        raise ValueError("specific and shared batches must have the same number of rows")
    return Tensor._apply("squared_cosine_mean", as_tensor(specific), as_tensor(shared))


def pairwise_gaussian_potential(x: Tensor, t: float = 2.0) -> Tensor:
    """``log E exp(-t ||G(x_i) - G(x_j)||^2)`` over all pairs of rows of ``x``.

    ``G`` projects onto the unit sphere; squared distances are clipped to
    ``[0, 4]`` (rounding can push a tiny one below zero).
    """
    return Tensor._apply("gaussian_potential", as_tensor(x), ctx=(float(t),))


def uniformity_loss(collab_specific: Tensor, llm_specific: Tensor, t: float = 2.0) -> Tensor:
    """Eq. (3): uniformity of the specific representations of both modalities."""
    return pairwise_gaussian_potential(collab_specific, t) + pairwise_gaussian_potential(
        llm_specific, t
    )


def global_structure_loss(collab_shared: Tensor, llm_shared: Tensor) -> Tensor:
    """Eq. (4)-(5): match the pairwise similarity structure of the shared spaces.

    The paper's formula is ``||S_C - S_L||_F^2`` with ``S = E E^T``.  Here the
    similarity matrices are computed on L2-normalised rows and the squared
    Frobenius norm is divided by the number of entries ``N̂^2``, which keeps
    the loss scale independent of the N̂ sub-sample size.
    """
    if collab_shared.shape[0] != llm_shared.shape[0]:
        raise ValueError("shared representations must cover the same instances")
    return Tensor._apply("similarity_gap", as_tensor(collab_shared), as_tensor(llm_shared))


def center_cosine_matrix(collab_centers: Tensor, llm_centers: Tensor) -> Tensor:
    """Eq. (9): cosine similarity between every pair of preference centres."""
    return F.pairwise_cosine(collab_centers, llm_centers)


def local_structure_loss(collab_centers: Tensor, llm_centers: Tensor) -> Tensor:
    """Eq. (10): matched centres agree (diagonal → 1), others repel (off-diag → 0).

    With ``C`` the Eq. (9) cosine matrix of ``k`` centres:
    ``mean_i (C_ii - 1)^2 + sum_{i≠j} C_ij^2 / (k^2 - k)``.
    """
    if collab_centers.shape != llm_centers.shape:
        raise ValueError("centre matrices must have identical shapes")
    return Tensor._apply("center_alignment", as_tensor(collab_centers), as_tensor(llm_centers))
