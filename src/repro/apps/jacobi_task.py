"""Point-Jacobi strips: the cheap-iteration contrast application.

Each asynchronous iteration performs ``sweeps`` point-Jacobi relaxations on
the local strip instead of an exact block solve.  Compute per iteration is
tiny, so the compute/communication ratio — the paper's ratio (4) — is small:
this app maximises the "useless iteration" phenomenon and stresses the
messaging layer.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.numerics.cg import csr_matvec_into
from repro.numerics.poisson import Poisson2D
from repro.numerics.residual import update_distance
from repro.numerics.splitting import shared_decomposition
from repro.p2p.messages import AppSpec
from repro.p2p.task import IterationStep, Task, TaskContext

__all__ = ["JacobiTask", "make_jacobi_app"]


class JacobiTask(Task):
    """One strip relaxed with point-Jacobi sweeps.

    ``ctx.params``: ``n`` (grid size), ``sweeps`` (relaxations per
    asynchronous iteration, default 1), ``problem``.
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        n = int(ctx.params["n"])
        self.sweeps = int(ctx.params.get("sweeps", 1))
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        problem = ctx.params.get("problem", "manufactured")
        build_problem = (
            Poisson2D.manufactured if problem == "manufactured"
            else Poisson2D.heat_plate
        )

        def build_system():
            prob = build_problem(n)
            return prob.A, prob.b

        decomp = shared_decomposition(
            ("jacobi", problem, n),
            build_system,
            nblocks=ctx.num_tasks,
            line=n,
        )
        self.blk = decomp.blocks[ctx.task_id]
        blk = self.blk
        cached = blk.op_cache.get("jacobi")
        if cached is not None:
            self.inv_diag, self.R = cached
        else:
            diag = blk.A_local.diagonal()
            if (diag == 0).any():
                raise ValueError("Jacobi needs a nonzero diagonal")
            self.inv_diag = 1.0 / diag
            #: local matrix without its diagonal (for x_new = D^{-1}(b - R x))
            self.R = (blk.A_local - sp.diags(diag)).tocsr()
            self.inv_diag.flags.writeable = False
            self.R.data.flags.writeable = False
            blk.op_cache["jacobi"] = (self.inv_diag, self.R)
        self.x = np.zeros(blk.n_ext)
        self.ext = np.zeros(blk.ext_cols.size)
        self._rhs = np.empty(blk.n_ext)
        self._sweep_buf = np.empty(blk.n_ext)
        self._old_owned = np.empty(blk.n_owned)
        self._dist_work = np.empty(blk.n_owned)

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
        buf = self._sweep_buf
        x = self.x
        for _ in range(self.sweeps):
            # inv_diag * (rhs - R@x) through the buffer
            csr_matvec_into(self.R, x, buf)
            np.subtract(rhs, buf, out=buf)
            x = self.inv_diag * buf
        self.x = x
        distance = update_distance(blk.owned_of(self.x), self._old_owned,
                                   work=self._dist_work)
        outgoing = blk.outgoing_payloads(self.x)
        flops = self.sweeps * (2.0 * self.R.nnz + 3.0 * blk.n_ext) + 2.0 * blk.B_coupling.nnz
        return IterationStep(flops=flops, outgoing=outgoing, local_distance=distance)

    def solution_fragment(self):
        blk = self.blk
        return (blk.own_start, blk.owned_of(self.x).copy())


def make_jacobi_app(
    app_id: str,
    n: int,
    num_tasks: int,
    sweeps: int = 1,
    problem: str = "manufactured",
    convergence_threshold: float | None = None,
    stability_window: int | None = None,
) -> AppSpec:
    return AppSpec(
        app_id=app_id,
        task_factory=JacobiTask,
        num_tasks=num_tasks,
        params={"n": n, "sweeps": sweeps, "problem": problem},
        convergence_threshold=convergence_threshold,
        stability_window=stability_window,
    )
