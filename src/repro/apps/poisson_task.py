"""The paper's application: asynchronous block-Jacobi for 2-D Poisson (§6).

Every task deterministically rebuilds the *global* problem from the
application parameters and restricts it to its strip — that is how a
replacement Daemon reconstructs the sub-problem after a failure without any
state transfer beyond the Backup.  (The paper ships Java byte-code plus
arguments the same way; the matrix is never sent over the network.)
Because the build is deterministic, P tasks and R recoveries share one
memoized decomposition (:func:`repro.numerics.shared_decomposition`).

Per asynchronous iteration the task:

1. folds the freshest neighbour boundary lines into its external-value
   vector (stale values persist when nothing arrived — chaotic relaxation);
2. solves its extended local system afresh with CG (cold start by
   default; ``warm_start`` and ``inner_solver="direct"`` are opt-ins) —
   on the cluster compute plane's shared operator when ``ctx.compute``
   offers one — unless the request equals the last one, which the task
   replays from its last-solve memo.  The CG runs in the strip's sine
   eigenbasis and is charged the flops of the sparse CG the paper ran
   (:mod:`repro.numerics.cg`);
3. sends one grid line (``n`` components) to each neighbour — constant
   exchange volume regardless of the overlap;
4. reports the max-norm relative distance between successive owned iterates.
"""

from __future__ import annotations

import numpy as np

from repro.apps.strip import StripTask
from repro.numerics.cg import block_operator
from repro.p2p.messages import AppSpec
from repro.p2p.task import TaskContext

__all__ = ["PoissonTask", "make_poisson_app"]


class PoissonTask(StripTask):
    """One strip of the Poisson problem.

    ``ctx.params``:

    * ``n`` — grid size (problem size is ``n²``, as in the paper);
    * ``overlap`` — overlapped grid lines per side (default 0);
    * ``inner_tol`` — relative tolerance of the inner CG (default 1e-10);
    * ``inner_max_iter`` — inner iteration cap (default: none);
    * ``warm_start`` — start the inner CG from the previous local solution
      (default False).  Classical block-Jacobi solves each local system
      afresh, so every outer iteration costs a full inner solve — that
      constant per-iteration computing time is what the paper's ratio (4)
      (compute-per-iteration / communication-per-iteration) is built on.
      Warm-starting makes stale-data iterations nearly free; it is exposed
      as an optimization ablation, not the reproduction default;
    * ``problem`` — ``"manufactured"`` (default) or ``"plate"``;
    * ``inner_solver`` — ``"cg"`` (default) or ``"direct"``: an exact
      solve by fast diagonalization (the strip is ``c·(T_m ⊗ I_n + I_m ⊗
      T_n)``; see :meth:`~repro.numerics.cg.CgOperator.solve_direct`),
      factored once per strip shape into ``2·m·n`` values.  A different
      numerical method — changes iteration counts and simulated time, so it
      is an explicit opt-in, never part of the reproduction defaults.  A
      direct iteration is charged the flops of an FFT-based solve of the
      strip, not the host's kernel.
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        self.inner_tol = float(ctx.params.get("inner_tol", 1e-10))
        self.inner_max_iter = ctx.params.get("inner_max_iter")
        self.warm_start = bool(ctx.params.get("warm_start", False))
        inner_solver = str(ctx.params.get("inner_solver", "cg"))
        if inner_solver not in ("cg", "direct"):
            raise ValueError(f"unknown inner_solver {inner_solver!r}")
        self._setup_problem(ctx, "poisson", "manufactured",
                            overlap=int(ctx.params.get("overlap", 0)))
        self._direct = inner_solver == "direct"
        op = block_operator(self.blk)
        #: the cluster's compute plane (it counts the solves), or None
        self._plane = ctx.compute
        #: where the inner solve runs: the plane's operator shared by
        #: every strip with this matrix, or the strip's own operator
        self._solver = (op if ctx.compute is None
                        else ctx.compute.operator_for(op))
        #: the last solve and its request: the coupled rhs rows (every
        #: other rhs row is ``b_local``), plus ``x`` under ``warm_start``
        self._memo_key = None
        self._memo = None

    def _update(self, rhs: np.ndarray) -> tuple[np.ndarray, float, dict]:
        key = self._coupled_rhs.tobytes()
        if self.warm_start:
            key = (key, self.x.tobytes())
        if key == self._memo_key:
            # replay the memo's own (frozen) array, not ``self.x``: a
            # load_state in between may have moved ``x`` elsewhere
            result = self._memo
            if self._plane is not None:
                self._plane.memo_hits += 1
        else:
            if self._direct:
                result = self._solver.solve_direct(rhs, tol=self.inner_tol)
            else:
                result = self._solver.solve(
                    rhs, x0=self.x if self.warm_start else None,
                    tol=self.inner_tol, max_iter=self.inner_max_iter)
            self._memo_key, self._memo = key, result
            if self._plane is not None:
                self._plane.loop_columns += 1
        blk = self.blk
        flops = result.flops + (2.0 * blk.B_coupling.nnz + 2.0 * blk.n_ext)
        return result.x, flops, {"inner_iterations": result.iterations}


def make_poisson_app(
    app_id: str,
    n: int,
    num_tasks: int,
    overlap: int = 0,
    inner_tol: float = 1e-10,
    inner_max_iter: int | None = None,
    warm_start: bool = False,
    inner_solver: str = "cg",
    convergence_threshold: float | None = None,
    reject_corruption: bool = False,
) -> AppSpec:
    """Convenience AppSpec builder for the Poisson application."""
    params = {
        "n": n,
        "overlap": overlap,
        "problem": "manufactured",
        "inner_tol": inner_tol,
        "inner_max_iter": inner_max_iter,
        "warm_start": warm_start,
        "inner_solver": inner_solver,
    }
    if reject_corruption:
        # only added when on: params ride inside every assign_task RMI
        # message, and a new key would change measured envelope sizes (and
        # with them the DES timeline) of runs that never asked for it
        params["reject_corruption"] = True
    return AppSpec(
        app_id=app_id,
        task_factory=PoissonTask,
        num_tasks=num_tasks,
        params=params,
        convergence_threshold=convergence_threshold,
    )
