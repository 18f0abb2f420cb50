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

import numpy as np

from repro.apps.strip import StripTask
from repro.numerics.cg import block_operator
from repro.p2p.messages import AppSpec
from repro.p2p.task import TaskContext

__all__ = ["HeatTask", "make_heat_app"]


class HeatTask(StripTask):
    """One strip of the pseudo-transient heat march.

    ``ctx.params``: ``n``, ``theta`` (fraction of the stability limit,
    default 0.9), ``steps_per_iteration`` (default 10), ``problem``
    (``"plate"``, the default, or ``"manufactured"``).
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        theta = float(ctx.params.get("theta", 0.9))
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.steps = int(ctx.params.get("steps_per_iteration", 10))
        if self.steps < 1:
            raise ValueError("steps_per_iteration must be >= 1")
        decomp = self._setup_problem(ctx, "heat", "plate")
        # explicit stability: dt * max diag < 1  (diag = 4/h² everywhere)
        self.dt = theta / float(decomp.A.diagonal().max())
        self._op = block_operator(self.blk)
        self._step_buf = np.empty(self.blk.n_ext)

    def _update(self, rhs: np.ndarray) -> tuple[np.ndarray, float, dict]:
        blk = self.blk
        buf = self._step_buf
        x = self.x
        for _ in range(self.steps):
            # x + dt*(rhs - A@x) through the buffer
            self._op.matvec(x, buf)
            np.subtract(rhs, buf, out=buf)
            np.multiply(buf, self.dt, out=buf)
            x = x + buf
        flops = self.steps * (2.0 * blk.A_local.nnz + 4.0 * blk.n_ext)
        return x, flops, {}


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
