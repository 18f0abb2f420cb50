"""Reference oracles: dense iteration matrices, the relative residual and
the discretization error, moved verbatim out of ``repro/numerics/``
(``matrix.py``, ``residual.py``, ``Poisson2D.discretization_error``) — no
experiment reaches them.  The tests check the solvers and the
asynchronous-convergence theory against them;
``block_jacobi_iteration_matrix`` is ``repro.numerics.theory``'s
``block_iteration_matrix`` for index lists.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.numerics.matrix import _as_dense

__all__ = ["jacobi_iteration_matrix", "block_jacobi_iteration_matrix",
           "relative_residual", "discretization_error"]


def jacobi_iteration_matrix(A) -> np.ndarray:
    """Point-Jacobi iteration matrix ``T = I - D⁻¹ A`` (dense)."""
    Ad = _as_dense(A)
    d = np.diag(Ad)
    if (d == 0).any():
        raise ValueError("zero diagonal entry: Jacobi splitting undefined")
    return np.eye(Ad.shape[0]) - Ad / d[:, None]


def block_jacobi_iteration_matrix(A, blocks: list[np.ndarray]) -> np.ndarray:
    """Block-Jacobi iteration matrix ``T = I - M⁻¹ A`` for a partition.

    ``blocks`` is a list of index arrays covering ``range(n)`` disjointly
    (no overlap here: the overlapped operator is not a single square matrix;
    the overlapping variant is validated behaviourally in the solver tests).
    """
    Ad = _as_dense(A)
    nrows = Ad.shape[0]
    seen = np.zeros(nrows, dtype=bool)
    M = np.zeros_like(Ad)
    for idx in blocks:
        idx = np.asarray(idx)
        if seen[idx].any():
            raise ValueError("blocks overlap")
        seen[idx] = True
        M[np.ix_(idx, idx)] = Ad[np.ix_(idx, idx)]
    if not seen.all():
        raise ValueError("blocks do not cover the matrix")
    return np.eye(nrows) - np.linalg.solve(M, Ad)


def relative_residual(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> float:
    """``||b - A x|| / ||b||`` (2-norm; absolute when ``b = 0``)."""
    r = b - A @ x
    b_norm = float(np.linalg.norm(b))
    r_norm = float(np.linalg.norm(r))
    return r_norm / b_norm if b_norm > 0 else r_norm


def discretization_error(n: int, x: np.ndarray) -> float:
    """Max-norm distance of ``x`` on the ``n x n`` grid to the continuous
    manufactured solution ``sin(πx) sin(πy)`` of
    :meth:`repro.numerics.Poisson2D.manufactured`."""
    xs = (np.arange(n) + 1) / (n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u = np.sin(np.pi * X) * np.sin(np.pi * Y)
    return float(np.max(np.abs(x - u.reshape(n * n))))
