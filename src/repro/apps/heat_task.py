"""Pseudo-transient heat equation: the "nonstationary PDE" future-work app.

Marches ``u_t = Δu + f`` explicitly in local pseudo-time until the steady
state (the Poisson solution) is reached::

    u ← u + dt (b - A u)    restricted to the local strip

with ``dt`` inside the explicit stability limit (``dt ≤ θ / max_i A_ii``,
θ < 1).  Each local step is a contraction with a nonnegative iteration
matrix ``I - dt·A`` (row sums < 1), so the chaotic asynchronous execution
converges — demonstrating the runtime is not tied to the block-CG solver.
``steps_per_iteration`` explicit steps are fused into one asynchronous
iteration to tune the compute/communication ratio.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.numerics.cg import block_operator, csr_matvec_into
from repro.numerics.poisson import Poisson2D
from repro.numerics.residual import update_distance
from repro.numerics.splitting import shared_decomposition
from repro.p2p.messages import AppSpec
from repro.p2p.task import IterationStep, Task, TaskContext

__all__ = ["HeatTask", "make_heat_app"]


class HeatTask(Task):
    """One strip of the pseudo-transient heat march.

    ``ctx.params``: ``n``, ``theta`` (fraction of the stability limit,
    default 0.9), ``steps_per_iteration`` (default 10), ``problem``.
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        n = int(ctx.params["n"])
        theta = float(ctx.params.get("theta", 0.9))
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.steps = int(ctx.params.get("steps_per_iteration", 10))
        if self.steps < 1:
            raise ValueError("steps_per_iteration must be >= 1")
        problem = ctx.params.get("problem", "plate")
        build_problem = (
            Poisson2D.manufactured if problem == "manufactured"
            else Poisson2D.heat_plate
        )

        def build_system():
            prob = build_problem(n)
            return prob.A, prob.b

        decomp = shared_decomposition(
            ("heat", problem, n),
            build_system,
            nblocks=ctx.num_tasks,
            line=n,
        )
        self.blk = decomp.blocks[ctx.task_id]
        # explicit stability: dt * max diag < 1  (diag = 4/h² everywhere)
        self.dt = theta / float(decomp.A.diagonal().max())
        self.x = np.zeros(self.blk.n_ext)
        self.ext = np.zeros(self.blk.ext_cols.size)
        self._op = block_operator(self.blk)
        self._rhs = np.empty(self.blk.n_ext)
        self._step_buf = np.empty(self.blk.n_ext)
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
        buf = self._step_buf
        x = self.x
        for _ in range(self.steps):
            # x + dt*(rhs - A@x) through the buffer
            self._op.matvec(x, buf)
            np.subtract(rhs, buf, out=buf)
            np.multiply(buf, self.dt, out=buf)
            x = x + buf
        self.x = x
        distance = update_distance(blk.owned_of(self.x), self._old_owned,
                                   work=self._dist_work)
        outgoing = blk.outgoing_payloads(self.x)
        flops = self.steps * (2.0 * blk.A_local.nnz + 4.0 * blk.n_ext)
        return IterationStep(flops=flops, outgoing=outgoing, local_distance=distance)

    def solution_fragment(self):
        blk = self.blk
        return (blk.own_start, blk.owned_of(self.x).copy())


def make_heat_app(
    app_id: str,
    n: int,
    num_tasks: int,
    theta: float = 0.9,
    steps_per_iteration: int = 10,
    problem: str = "plate",
    convergence_threshold: float | None = None,
    stability_window: int | None = None,
) -> AppSpec:
    return AppSpec(
        app_id=app_id,
        task_factory=HeatTask,
        num_tasks=num_tasks,
        params={
            "n": n,
            "theta": theta,
            "steps_per_iteration": steps_per_iteration,
            "problem": problem,
        },
        convergence_threshold=convergence_threshold,
        stability_window=stability_window,
    )
