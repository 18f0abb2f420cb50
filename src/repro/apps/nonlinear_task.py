"""Nonlinear application — the §8 future-work direction, implemented.

Solves the semilinear elliptic problem

    -Δu + c·u³ = f     on the unit square, Dirichlet boundary,

discretized on the same grid as §6, so the system is ``A u + c u∘u∘u = b``
with ``A`` the 5-point M-matrix.  The monotone nonlinearity (``c ≥ 0``)
keeps the block fixed-point a contraction, so the *asynchronous* execution
converges exactly as in the linear case — the paper's claim that "the class
of problems that can be implemented with this platform is large and
features, for example, nonlinear applications".

Each asynchronous iteration solves the local nonlinear block system with a
damped Newton method; every Newton step is an SPD solve (Jacobian
``A_loc + 3c·diag(u²)``) done by the same from-scratch CG.
"""

from __future__ import annotations

import numpy as np

from repro.apps.strip import StripTask
from repro.numerics.cg import conjugate_gradient
from repro.numerics.poisson import poisson_matrix
from repro.numerics.splitting import shared_decomposition
from repro.p2p.messages import AppSpec
from repro.p2p.task import TaskContext

__all__ = ["NonlinearPoissonTask", "make_nonlinear_app", "nonlinear_reference"]


def _manufactured_system(n: int, c: float):
    """``A, b, u*`` such that ``A u* + c u*³ = b`` exactly (discretely)."""
    A = poisson_matrix(n, scaled=True)
    h = 1.0 / (n + 1)
    xs = (np.arange(n) + 1) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u_star = (np.sin(np.pi * X) * np.sin(np.pi * Y)).reshape(n * n)
    b = A @ u_star + c * u_star**3
    return A, b, u_star


def nonlinear_reference(n: int, c: float) -> np.ndarray:
    """Sequential global Newton solve, for validation: at most 50 steps,
    to a relative residual of 1e-12."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    A, b, _ = _manufactured_system(n, c)
    u = np.zeros(n * n)
    for _ in range(50):
        residual = A @ u + c * u**3 - b
        if np.linalg.norm(residual) <= 1e-12 * max(np.linalg.norm(b), 1e-300):
            break
        J = (A.to_scipy() + sp.diags(3.0 * c * u**2)).tocsc()
        u = u - spsolve(J, residual)
    return u


class NonlinearPoissonTask(StripTask):
    """One strip of the semilinear problem.

    ``ctx.params``: ``n`` (grid size), ``c`` (nonlinearity strength,
    default 1.0), ``newton_iters`` (inner Newton steps per asynchronous
    iteration, default 3), ``inner_tol`` (CG tolerance, default 1e-10).
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        n = int(ctx.params["n"])
        self.c = float(ctx.params.get("c", 1.0))
        if self.c < 0:
            raise ValueError("c must be >= 0 (monotone nonlinearity)")
        self.newton_iters = int(ctx.params.get("newton_iters", 3))
        if self.newton_iters < 1:
            raise ValueError("newton_iters must be >= 1")
        self.inner_tol = float(ctx.params.get("inner_tol", 1e-10))
        c = self.c

        def build_system():
            A, b, _ = _manufactured_system(n, c)
            return A, b

        self._setup_strip(ctx, shared_decomposition(
            ("nonlinear-poisson", n, c), build_system,
            nblocks=ctx.num_tasks, line=n,
            overlap=int(ctx.params.get("overlap", 0))))

    def _update(self, rhs: np.ndarray) -> tuple[np.ndarray, float, dict]:
        import scipy.sparse as sp
        blk = self.blk
        x = self.x  # immutable: the first Newton step rebinds it
        flops = 2.0 * blk.B_coupling.nnz
        for _ in range(self.newton_iters):
            residual = blk.A_local @ x + self.c * x**3 - rhs
            jacobian = blk.A_local.to_scipy() + sp.diags(3.0 * self.c * x**2)
            step = conjugate_gradient(jacobian, residual, tol=self.inner_tol)
            x = x - step.x
            flops += step.flops + 4.0 * blk.n_ext + 2.0 * blk.A_local.nnz
        return x, flops, {}


def make_nonlinear_app(
    app_id: str,
    n: int,
    num_tasks: int,
    c: float = 1.0,
    convergence_threshold: float | None = None,
) -> AppSpec:
    return AppSpec(
        app_id=app_id,
        task_factory=NonlinearPoissonTask,
        num_tasks=num_tasks,
        params={"n": n, "c": c, "overlap": 0, "newton_iters": 3},
        convergence_threshold=convergence_threshold,
    )
