"""Convection–diffusion: a *nonsymmetric* M-matrix problem.

    -ε Δu + w · ∇u = f     on the unit square, Dirichlet boundary,

discretized with central differences for the diffusion and **first-order
upwind** differences for the convection.  Upwinding is what preserves the
M-matrix sign structure for any velocity ``w`` (central convection would
break it once the cell Péclet number exceeds 1) — so the asynchronous
convergence theory the paper relies on (§1) still applies, while the
operator is genuinely nonsymmetric and needs BiCGSTAB rather than CG.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["convection_diffusion_matrix", "ConvectionDiffusion2D"]


def convection_diffusion_matrix(
    n: int,
    eps: float = 1.0,
    wx: float = 0.0,
    wy: float = 0.0,
) -> sp.csr_matrix:
    """Upwind 5-point operator on the ``n × n`` interior grid.

    Row-major ordering (grid row i, column j → i·n + j); grid row index i
    is the x-coordinate direction, matching :mod:`repro.numerics.poisson`.
    """
    if n < 1:
        raise ValueError("grid size n must be >= 1")
    if eps <= 0:
        raise ValueError("diffusion coefficient eps must be positive")
    h = 1.0 / (n + 1)
    d = eps / (h * h)

    # upwind convection splits |w|/h onto the upstream neighbour
    wxp, wxm = max(wx, 0.0) / h, max(-wx, 0.0) / h  # flow in +x / -x
    wyp, wym = max(wy, 0.0) / h, max(-wy, 0.0) / h

    diag = (4.0 * d + wxp + wxm + wyp + wym) * np.ones(n * n)
    # x-direction couplings connect different GRID ROWS: offsets ±n
    upper_x = (-d - wxm) * np.ones(n * n - n)   # u_{i+1,j}
    lower_x = (-d - wxp) * np.ones(n * n - n)   # u_{i-1,j}
    # y-direction couplings are offsets ±1 within a grid row
    upper_y = (-d - wym) * np.ones(n * n - 1)   # u_{i,j+1}
    lower_y = (-d - wyp) * np.ones(n * n - 1)   # u_{i,j-1}
    mask = np.arange(1, n * n) % n == 0         # no wrap across grid rows
    upper_y[mask] = 0.0
    lower_y[mask] = 0.0

    import scipy.sparse as sp
    return sp.diags(
        [diag, upper_y, lower_y, upper_x, lower_x],
        [0, 1, -1, n, -n],
        format="csr",
    )


class ConvectionDiffusion2D:
    """An assembled problem with a discretely-exact manufactured solution."""

    def __init__(self, n: int, eps: float = 1.0, wx: float = 1.0, wy: float = 0.5):
        self.n = n
        self.eps = eps
        self.wx = wx
        self.wy = wy
        self.A = convection_diffusion_matrix(n, eps, wx, wy)
        h = 1.0 / (n + 1)
        xs = (np.arange(n) + 1) * h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        self.u_star = (np.sin(np.pi * X) * np.sin(np.pi * Y)).reshape(n * n)
        self.b = self.A @ self.u_star  # discrete-exact right-hand side

    @property
    def size(self) -> int:
        return self.n * self.n

    def solve_direct(self) -> np.ndarray:
        from scipy.sparse.linalg import spsolve

        return spsolve(self.A.tocsc(), self.b)

    def residual_norm(self, x: np.ndarray) -> float:
        r = self.b - self.A @ x
        return float(np.linalg.norm(r) / max(np.linalg.norm(self.b), 1e-300))
