"""Sparse-adjacency support for graph models.

Real GCNII workloads propagate over sparse graphs; a dense ``n x n``
adjacency matrix is quadratic in nodes and dominates memory for anything
beyond toy sizes.  :func:`spmm` multiplies a *constant* SciPy sparse
matrix with an autograd :class:`~repro.tensor.Tensor`:

.. math:: y = A x \\quad\\Rightarrow\\quad \\partial L/\\partial x = A^T
   \\, \\partial L/\\partial y

(A carries no gradient — graph structure is data, not parameters).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import Tensor

__all__ = ["spmm", "normalized_adjacency_sparse"]


def spmm(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """``matrix @ x`` with gradient routed through the dense operand."""
    if not sp.issparse(matrix):
        raise TypeError("matrix must be a scipy.sparse matrix")
    if matrix.shape[1] != x.shape[0]:
        raise ValueError(
            f"shape mismatch: {matrix.shape} @ {x.shape}"
        )
    csr = matrix.tocsr()
    out_data = np.asarray(csr @ x.data, dtype=np.float32)

    def backward(out, grad: np.ndarray, a=x) -> None:
        out._send(a, np.asarray(csr.T @ grad, dtype=np.float32))

    out = x._make(out_data, (x,), backward)
    return out


def normalized_adjacency_sparse(adj: sp.spmatrix) -> sp.csr_matrix:
    """Sparse symmetric normalization with self-loops:
    D^-1/2 (A+I) D^-1/2."""
    if not sp.issparse(adj):
        raise TypeError("adj must be a scipy.sparse matrix")
    if adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if adj.nnz and adj.min() < 0:
        raise ValueError("adjacency entries must be non-negative")
    n = adj.shape[0]
    a_hat = (adj + sp.eye(n, format="csr")).tocsr()
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(d_inv_sqrt)
    return (d @ a_hat @ d).tocsr().astype(np.float32)
