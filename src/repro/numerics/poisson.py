"""2-D Poisson problem: ``-Δu = f`` on the unit square (paper §6).

Discretized with centred finite differences on a uniform ``n × n`` interior
grid (mesh width ``h = 1/(n+1)``), Dirichlet boundary conditions::

    (4 u_{i,j} - u_{i-1,j} - u_{i+1,j} - u_{i,j-1} - u_{i,j+1}) / h² = f_{i,j}

Unknowns are ordered row-major (grid row ``i``, column ``j`` → index
``i*n + j``), which makes the matrix 5-diagonal and makes a *horizontal
strip* of the grid a contiguous index range — the decomposition unit used by
the paper (components per processor are a multiple of ``n``).

:func:`five_point_matrix` is the one builder of the stencil, for the
global grid and for any strip of ``m`` lines of ``n`` points: it writes
each of the five diagonals straight into the int32 column and float64
value arrays of a :class:`~repro.numerics.csr.CsrMatrix`, in sorted
column order, and loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.numerics.csr import CsrMatrix

__all__ = ["five_point_matrix", "poisson_matrix", "poisson_rhs", "Poisson2D"]


def five_point_matrix(m: int, n: int, c: float) -> CsrMatrix:
    """``c·(T_m ⊗ I_n + I_m ⊗ T_n)`` with ``T_k = tridiag(-1, 2, -1)``: the
    5-point stencil on ``m`` grid lines of ``n`` points, ``4c`` on the
    diagonal and ``-c`` towards each of the (up to) four neighbours.

    Row ``i·n + j`` stores its entries in column order — the line above,
    the left point, itself, the right point, the line below — so the
    matrix is canonical CSR.
    """
    size = m * n
    grid = np.arange(size, dtype=np.int32).reshape(m, n)
    counts = np.full((m, n), 5, dtype=np.int32)
    counts[0] -= 1
    counts[-1] -= 1
    counts[:, 0] -= 1
    counts[:, -1] -= 1
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    # each row's next free entry, filled one diagonal at a time
    slot = indptr[:-1].reshape(m, n).copy()
    for rows, offset, value in ((np.s_[1:, :], -n, -1.0 * c),
                                (np.s_[:, 1:], -1, -1.0 * c),
                                (np.s_[:, :], 0, 4.0 * c),
                                (np.s_[:, :-1], 1, -1.0 * c),
                                (np.s_[:-1, :], n, -1.0 * c)):
        at = slot[rows]
        indices[at] = grid[rows] + offset
        data[at] = value
        slot[rows] += 1
    return CsrMatrix(data, indices, indptr, (size, size))


def poisson_matrix(n: int, scaled: bool = True) -> CsrMatrix:
    """The 5-point Laplacian on an ``n × n`` interior grid (size ``n² × n²``).

    ``scaled=True`` includes the ``1/h²`` factor (the physical operator);
    ``scaled=False`` returns the pure stencil (4 on the diagonal, -1 off),
    which has the same iteration matrices and is convenient in tests.
    """
    if n < 1:
        raise ValueError("grid size n must be >= 1")
    return five_point_matrix(n, n, (n + 1.0) ** 2 if scaled else 1.0)


def poisson_rhs(
    n: int,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Assemble the right-hand side for ``-Δu = f`` with zero Dirichlet
    data; ``f(x, y)`` is a vectorized callable on grid coordinate arrays.
    """
    if n < 1:
        raise ValueError("grid size n must be >= 1")
    h = 1.0 / (n + 1)
    xs = (np.arange(n) + 1) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")  # X: grid-row coordinate
    return f(X, Y).astype(float).reshape(n * n).copy()


@dataclass
class Poisson2D:
    """A fully assembled Poisson problem with its exact discrete solution.

    By default uses the *manufactured solution*
    ``u(x, y) = sin(πx) sin(πy)``, for which ``f = 2π² u``; the discrete
    solution then differs from ``u`` only by the O(h²) truncation error.
    """

    n: int
    A: CsrMatrix
    b: np.ndarray

    @classmethod
    def manufactured(cls, n: int) -> "Poisson2D":
        A = poisson_matrix(n, scaled=True)
        u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
        f = lambda x, y: 2.0 * np.pi**2 * u(x, y)  # noqa: E731
        b = poisson_rhs(n, f)  # u vanishes on the boundary
        return cls(n=n, A=A, b=b)

    @classmethod
    def heat_plate(cls, n: int) -> "Poisson2D":
        """Unit heat source, cold walls — the physics motivation in §6."""
        A = poisson_matrix(n, scaled=True)
        b = poisson_rhs(n, lambda x, y: np.full_like(x, 1.0))
        return cls(n=n, A=A, b=b)

    @property
    def size(self) -> int:
        """Number of unknowns, ``n²`` (the paper's "problem size")."""
        return self.n * self.n

    def solve_direct(self) -> np.ndarray:
        """Reference solution via a sparse direct solve."""
        from scipy.sparse.linalg import spsolve

        return spsolve(self.A.to_scipy().tocsc(), self.b)

    def residual_norm(self, x: np.ndarray) -> float:
        r = self.b - self.A @ x
        return float(np.linalg.norm(r) / max(np.linalg.norm(self.b), 1e-300))
