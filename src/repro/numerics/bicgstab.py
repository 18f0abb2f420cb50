"""BiCGSTAB — a from-scratch Krylov solver for *nonsymmetric* systems.

The paper's inner solver is CG (§6), which requires symmetry.  The class
of problems the paper claims (§1: "sparse linear systems … where A is an
M-matrix") is wider: upwind-discretized convection–diffusion operators are
nonsymmetric M-matrices.  BiCGSTAB (van der Vorst 1992) handles those; the
implementation mirrors :mod:`repro.numerics.cg`'s interface, including the
flop accounting the simulator charges as compute time.
"""

from __future__ import annotations

import numpy as np

from repro.numerics.cg import CgResult
from repro.numerics.csr import CsrMatrix

__all__ = ["bicgstab", "bicgstab_flops_estimate"]


def bicgstab_flops_estimate(nnz: int, nrows: int, iterations: int) -> float:
    """Two matvecs (4·nnz) plus ~14 vector ops per iteration."""
    return float(iterations) * (4.0 * nnz + 14.0 * nrows) + 2.0 * nnz


def bicgstab(
    A,
    b: np.ndarray,
    tol: float = 1e-10,
) -> CgResult:
    """Solve ``A x = b`` for general nonsingular sparse ``A`` (any matrix
    :meth:`CsrMatrix.of <repro.numerics.csr.CsrMatrix.of>` takes),
    multiplying through scipy's CSR kernel.

    Returns the same :class:`~repro.numerics.cg.CgResult` record as the CG
    solver so callers (tasks, the compute-cost model) are solver-agnostic.
    Convergence test: ``||r|| <= tol * ||b||``, from a zero start, within
    ``max(20·n, 200)`` iterations.
    """
    A = CsrMatrix.of(A).to_scipy()
    nrows = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    b = np.asarray(b, dtype=float)
    if b.shape != (nrows,):
        raise ValueError(f"b has shape {b.shape}, expected ({nrows},)")
    max_iter = max(20 * nrows, 200)

    x = np.zeros(nrows)

    b_norm = float(np.linalg.norm(b))
    stop = tol * b_norm if b_norm > 0 else tol

    r = b - A @ x
    res = float(np.linalg.norm(r))
    r_hat = r.copy()  # shadow residual
    rho = alpha = omega = 1.0
    v = np.zeros(nrows)
    p = np.zeros(nrows)
    it = 0

    while res > stop and it < max_iter:
        rho_new = float(r_hat @ r)
        if rho_new == 0.0:
            break  # breakdown: shadow residual orthogonal to residual
        if it == 0:
            p = r.copy()
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        v = A @ p
        denom = float(r_hat @ v)
        if denom == 0.0:
            break
        alpha = rho_new / denom
        s = r - alpha * v
        s_norm = float(np.linalg.norm(s))
        if s_norm <= stop:
            x += alpha * p
            res = s_norm
            it += 1
            break
        t = A @ s
        tt = float(t @ t)
        if tt == 0.0:
            break
        omega = float(t @ s) / tt
        if omega == 0.0:
            break
        x += alpha * p + omega * s
        r = s - omega * t
        res = float(np.linalg.norm(r))
        rho = rho_new
        it += 1

    return CgResult(
        x=x,
        converged=res <= stop,
        iterations=it,
        residual_norm=res,
        flops=bicgstab_flops_estimate(A.nnz, nrows, it),
    )
