"""Sparse graph propagation as a differentiable operation.

Graph collaborative filtering backbones repeatedly compute ``A_hat @ E`` where
``A_hat`` is a fixed (non-trainable) normalised adjacency matrix stored in CSR
format and ``E`` is the trainable embedding table.  The adjoint of that product
is ``A_hat.T @ grad`` (the ``sparse_matmul`` primitive of
:mod:`repro.nn.primitives`).
"""

from __future__ import annotations

import scipy.sparse as sp

from .tensor import Tensor

__all__ = ["sparse_dense_matmul"]


def sparse_dense_matmul(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Differentiable ``matrix @ dense`` for a constant sparse ``matrix``."""
    if matrix.shape[1] != dense.shape[0]:
        raise ValueError(
            f"dimension mismatch: sparse {matrix.shape} cannot multiply dense {dense.shape}"
        )
    csr = matrix.tocsr()
    return Tensor._apply("sparse_matmul", dense, ctx=(csr, csr.T))
