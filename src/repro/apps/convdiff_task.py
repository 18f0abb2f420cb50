"""Convection–diffusion application: nonsymmetric blocks, BiCGSTAB inner.

Same strip decomposition and one-grid-line exchanges as the Poisson app —
the decomposition machinery is matrix-driven, so the upwind operator's
extra asymmetry changes nothing structurally — but the local solves use
BiCGSTAB because the blocks are nonsymmetric.  Upwinding keeps the global
operator an M-matrix, so the asynchronous execution remains certified.
"""

from __future__ import annotations

import numpy as np

from repro.apps.strip import StripTask
from repro.numerics.bicgstab import bicgstab
from repro.numerics.convdiff import ConvectionDiffusion2D
from repro.numerics.splitting import shared_decomposition
from repro.p2p.messages import AppSpec
from repro.p2p.task import TaskContext

__all__ = ["ConvectionDiffusionTask", "make_convdiff_app"]


class ConvectionDiffusionTask(StripTask):
    """One strip of the upwind convection–diffusion problem.

    ``ctx.params``: ``n``, ``eps`` (diffusion, default 1.0), ``wx``/``wy``
    (velocity, default (1.0, 0.5)), ``overlap``, ``inner_tol``.
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        n = int(ctx.params["n"])
        eps = float(ctx.params.get("eps", 1.0))
        wx = float(ctx.params.get("wx", 1.0))
        wy = float(ctx.params.get("wy", 0.5))
        self.inner_tol = float(ctx.params.get("inner_tol", 1e-10))

        def build_system():
            problem = ConvectionDiffusion2D(n, eps=eps, wx=wx, wy=wy)
            return problem.A, problem.b

        self._setup_strip(ctx, shared_decomposition(
            ("convdiff", n, eps, wx, wy), build_system,
            nblocks=ctx.num_tasks, line=n,
            overlap=int(ctx.params.get("overlap", 0))))

    def _update(self, rhs: np.ndarray) -> tuple[np.ndarray, float, dict]:
        blk = self.blk
        result = bicgstab(blk.A_local, rhs, tol=self.inner_tol)
        flops = result.flops + 2.0 * blk.B_coupling.nnz
        return result.x, flops, {"inner_iterations": result.iterations}


def make_convdiff_app(
    app_id: str,
    n: int,
    num_tasks: int,
    eps: float = 1.0,
    wx: float = 1.0,
    wy: float = 0.5,
    convergence_threshold: float | None = None,
) -> AppSpec:
    return AppSpec(
        app_id=app_id,
        task_factory=ConvectionDiffusionTask,
        num_tasks=num_tasks,
        params={"n": n, "eps": eps, "wx": wx, "wy": wy, "overlap": 0},
        convergence_threshold=convergence_threshold,
    )
