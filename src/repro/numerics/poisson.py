"""2-D Poisson problem: ``-Δu = f`` on the unit square (paper §6).

Discretized with centred finite differences on a uniform ``n × n`` interior
grid (mesh width ``h = 1/(n+1)``), Dirichlet boundary conditions::

    (4 u_{i,j} - u_{i-1,j} - u_{i+1,j} - u_{i,j-1} - u_{i,j+1}) / h² = f_{i,j}

Unknowns are ordered row-major (grid row ``i``, column ``j`` → index
``i*n + j``), which makes the matrix 5-diagonal and makes a *horizontal
strip* of the grid a contiguous index range — the decomposition unit used by
the paper (components per processor are a multiple of ``n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["poisson_matrix", "poisson_rhs", "Poisson2D"]


def poisson_matrix(n: int, scaled: bool = True) -> sp.csr_matrix:
    """The 5-point Laplacian on an ``n × n`` interior grid (size ``n² × n²``).

    ``scaled=True`` includes the ``1/h²`` factor (the physical operator);
    ``scaled=False`` returns the pure stencil (4 on the diagonal, -1 off),
    which has the same iteration matrices and is convenient in tests.
    """
    if n < 1:
        raise ValueError("grid size n must be >= 1")
    import scipy.sparse as sp
    h2inv = (n + 1.0) ** 2 if scaled else 1.0
    main = 4.0 * np.ones(n * n)
    side = -1.0 * np.ones(n * n - 1)
    # no horizontal coupling across grid-row boundaries
    side[np.arange(1, n * n) % n == 0] = 0.0
    updown = -1.0 * np.ones(n * n - n)
    A = sp.diags(
        [main, side, side, updown, updown],
        [0, 1, -1, n, -n],
        format="csr",
    )
    return (A * h2inv).tocsr()


def poisson_rhs(
    n: int,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    boundary: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Assemble the right-hand side for ``-Δu = f`` with Dirichlet data.

    ``f(x, y)`` and ``boundary(x, y)`` are vectorized callables on grid
    coordinate arrays.  Nonzero boundary values are folded into ``b`` via the
    standard elimination of known unknowns.
    """
    if n < 1:
        raise ValueError("grid size n must be >= 1")
    h = 1.0 / (n + 1)
    xs = (np.arange(n) + 1) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")  # X: grid-row coordinate
    b = f(X, Y).astype(float).reshape(n * n).copy()
    if boundary is not None:
        h2inv = 1.0 / (h * h)
        edge = np.zeros((n, n))
        zero, one = np.zeros(n), np.ones(n)
        edge[0, :] += boundary(zero, xs)        # x = 0 side touches row 0
        edge[-1, :] += boundary(one, xs)        # x = 1 side
        edge[:, 0] += boundary(xs, zero)        # y = 0 side
        edge[:, -1] += boundary(xs, one)        # y = 1 side
        b += h2inv * edge.reshape(n * n)
    return b


@dataclass
class Poisson2D:
    """A fully assembled Poisson problem with its exact discrete solution.

    By default uses the *manufactured solution*
    ``u(x, y) = sin(πx) sin(πy)``, for which ``f = 2π² u``; the discrete
    solution then differs from ``u`` only by the O(h²) truncation error,
    which :meth:`discretization_error` reports.
    """

    n: int
    A: sp.csr_matrix
    b: np.ndarray
    u_exact_grid: np.ndarray | None = None

    @classmethod
    def manufactured(cls, n: int) -> "Poisson2D":
        A = poisson_matrix(n, scaled=True)
        u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
        f = lambda x, y: 2.0 * np.pi**2 * u(x, y)  # noqa: E731
        b = poisson_rhs(n, f)  # u vanishes on the boundary
        h = 1.0 / (n + 1)
        xs = (np.arange(n) + 1) * h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        return cls(n=n, A=A, b=b, u_exact_grid=u(X, Y).reshape(n * n))

    @classmethod
    def heat_plate(cls, n: int, source: float = 1.0) -> "Poisson2D":
        """Constant heat source, cold walls — the physics motivation in §6."""
        A = poisson_matrix(n, scaled=True)
        b = poisson_rhs(n, lambda x, y: np.full_like(x, source))
        return cls(n=n, A=A, b=b)

    @property
    def size(self) -> int:
        """Number of unknowns, ``n²`` (the paper's "problem size")."""
        return self.n * self.n

    def solve_direct(self) -> np.ndarray:
        """Reference solution via a sparse direct solve."""
        from scipy.sparse.linalg import spsolve

        return spsolve(self.A.tocsc(), self.b)

    def residual_norm(self, x: np.ndarray) -> float:
        r = self.b - self.A @ x
        return float(np.linalg.norm(r) / max(np.linalg.norm(self.b), 1e-300))

    def discretization_error(self, x: np.ndarray) -> float:
        """Max-norm distance to the continuous manufactured solution."""
        if self.u_exact_grid is None:
            raise ValueError("no manufactured solution attached")
        return float(np.max(np.abs(x - self.u_exact_grid)))
