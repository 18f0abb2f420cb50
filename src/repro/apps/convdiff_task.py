"""Convection–diffusion application: nonsymmetric blocks, BiCGSTAB inner.

Same strip decomposition and one-grid-line exchanges as the Poisson app —
the decomposition machinery is matrix-driven, so the upwind operator's
extra asymmetry changes nothing structurally — but the local solves use
BiCGSTAB because the blocks are nonsymmetric.  Upwinding keeps the global
operator an M-matrix, so the asynchronous execution remains certified.
"""

from __future__ import annotations

from typing import Any

from repro.numerics.bicgstab import bicgstab
from repro.numerics.cg import csr_matvec_into
from repro.numerics.convdiff import ConvectionDiffusion2D
from repro.numerics.residual import update_distance
from repro.numerics.splitting import shared_decomposition
from repro.p2p.messages import AppSpec
from repro.p2p.task import IterationStep, Task, TaskContext

import numpy as np

__all__ = ["ConvectionDiffusionTask", "make_convdiff_app"]


class ConvectionDiffusionTask(Task):
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
        overlap = int(ctx.params.get("overlap", 0))
        self.inner_tol = float(ctx.params.get("inner_tol", 1e-10))

        def build_system():
            problem = ConvectionDiffusion2D(n, eps=eps, wx=wx, wy=wy)
            return problem.A, problem.b

        decomp = shared_decomposition(
            ("convdiff", n, eps, wx, wy),
            build_system,
            nblocks=ctx.num_tasks,
            line=n,
            overlap=overlap,
        )
        self.blk = decomp.blocks[ctx.task_id]
        self.n = n
        self.x = np.zeros(self.blk.n_ext)
        self.ext = np.zeros(self.blk.ext_cols.size)
        self._rhs = np.empty(self.blk.n_ext)
        self._old_owned = np.empty(self.blk.n_owned)
        self._dist_work = np.empty(self.blk.n_owned)

    def initial_state(self) -> dict:
        blk = self.blk
        return {"x": np.zeros(blk.n_ext), "ext": np.zeros(blk.ext_cols.size)}

    def load_state(self, state: dict) -> None:
        self.x = np.array(state["x"], dtype=float, copy=True)
        self.ext = np.array(state["ext"], dtype=float, copy=True)

    def dump_state(self) -> dict:
        return {"x": self.x.copy(), "ext": self.ext.copy()}

    def iterate(self, inbox: dict[int, Any]) -> IterationStep:
        blk = self.blk
        for src_task, payload in inbox.items():
            positions = blk.ext_sources.get(src_task)
            if positions is None:
                continue
            values = np.asarray(payload, dtype=float)
            if values.shape == (positions.size,):
                self.ext[positions] = self.guard_payload(src_task, values)

        if self.ext.size:
            csr_matvec_into(blk.B_coupling, self.ext, self._rhs)
            np.subtract(blk.b_local, self._rhs, out=self._rhs)
            rhs = self._rhs
        else:
            rhs = blk.b_local
        np.copyto(self._old_owned, blk.owned_of(self.x))
        result = bicgstab(blk.A_local, rhs, tol=self.inner_tol)
        self.x = result.x
        distance = update_distance(blk.owned_of(self.x), self._old_owned,
                                   work=self._dist_work)
        outgoing = blk.outgoing_payloads(self.x)
        flops = result.flops + 2.0 * blk.B_coupling.nnz
        return IterationStep(
            flops=flops,
            outgoing=outgoing,
            local_distance=distance,
            info={"inner_iterations": result.iterations},
        )

    def solution_fragment(self):
        blk = self.blk
        return (blk.own_start, blk.owned_of(self.x).copy())


def make_convdiff_app(
    app_id: str,
    n: int,
    num_tasks: int,
    eps: float = 1.0,
    wx: float = 1.0,
    wy: float = 0.5,
    overlap: int = 0,
    convergence_threshold: float | None = None,
    stability_window: int | None = None,
) -> AppSpec:
    return AppSpec(
        app_id=app_id,
        task_factory=ConvectionDiffusionTask,
        num_tasks=num_tasks,
        params={"n": n, "eps": eps, "wx": wx, "wy": wy, "overlap": overlap},
        convergence_threshold=convergence_threshold,
        stability_window=stability_window,
    )
