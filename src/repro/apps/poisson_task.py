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
2. solves its extended local system with warm-started CG;
3. sends one grid line (``n`` components) to each neighbour — constant
   exchange volume regardless of the overlap;
4. reports the max-norm relative distance between successive owned iterates.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.numerics.cg import block_operator, csr_matvec_into
from repro.numerics.poisson import Poisson2D
from repro.numerics.residual import update_distance
from repro.numerics.splitting import shared_decomposition
from repro.p2p.messages import AppSpec
from repro.p2p.task import IterationStep, StepPlan, Task, TaskContext

__all__ = ["PoissonTask", "make_poisson_app"]


class PoissonTask(Task):
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
    * ``inner_solver`` — ``"cg"`` (default) or ``"direct"``: the cached-LU
      path for small blocks (falls back to CG for blocks above
      ``direct_max_rows``, default 50000).  A different
      numerical method — changes iteration counts and simulated time, so it
      is an explicit opt-in, never part of the reproduction defaults.  The
      factorization uses SuperLU's symmetric ordering (the block is a strip
      of the symmetric Poisson matrix); its stored entries set both the
      host cost of a solve and the simulated length of a direct iteration.
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        n = int(ctx.params["n"])
        overlap = int(ctx.params.get("overlap", 0))
        self.inner_tol = float(ctx.params.get("inner_tol", 1e-10))
        self.inner_max_iter = ctx.params.get("inner_max_iter")
        self.warm_start = bool(ctx.params.get("warm_start", False))
        self.inner_solver = str(ctx.params.get("inner_solver", "cg"))
        if self.inner_solver not in ("cg", "direct"):
            raise ValueError(f"unknown inner_solver {self.inner_solver!r}")
        self.direct_max_rows = int(ctx.params.get("direct_max_rows", 50_000))
        problem = ctx.params.get("problem", "manufactured")
        if problem == "manufactured":
            build_problem = Poisson2D.manufactured
        elif problem == "plate":
            build_problem = Poisson2D.heat_plate
        else:
            raise ValueError(f"unknown problem {problem!r}")

        def build_system():
            prob = build_problem(n)
            return prob.A, prob.b

        decomp = shared_decomposition(
            ("poisson", problem, n),
            build_system,
            nblocks=ctx.num_tasks,
            line=n,
            overlap=overlap,
        )
        self.blk = decomp.blocks[ctx.task_id]
        self.n = n
        self.x = np.zeros(self.blk.n_ext)
        self.ext = np.zeros(self.blk.ext_cols.size)
        self._op = block_operator(self.blk)
        self._rhs = np.empty(self.blk.n_ext)
        self._old_owned = np.empty(self.blk.n_owned)
        self._dist_work = np.empty(self.blk.n_owned)

    # -- state ---------------------------------------------------------------

    def initial_state(self) -> dict:
        blk = self.blk
        return {"x": np.zeros(blk.n_ext), "ext": np.zeros(blk.ext_cols.size)}

    def load_state(self, state: dict) -> None:
        self.x = np.array(state["x"], dtype=float, copy=True)
        self.ext = np.array(state["ext"], dtype=float, copy=True)

    def dump_state(self) -> dict:
        return {"x": self.x.copy(), "ext": self.ext.copy()}

    # -- iteration ------------------------------------------------------------

    def _fold_inbox(self, inbox: dict[int, Any]) -> None:
        blk = self.blk
        for src_task, payload in inbox.items():
            positions = blk.ext_sources.get(src_task)
            if positions is None:
                continue  # not one of our suppliers: drop
            values = np.asarray(payload, dtype=float)
            if values.shape == (positions.size,):
                self.ext[positions] = self.guard_payload(src_task, values)

    def iterate(self, inbox: dict[int, Any]) -> IterationStep:
        """One whole iteration, solved on the spot (the baselines and
        :mod:`repro.local` drive tasks without a compute plane)."""
        plan = self.begin_step(inbox)
        if plan.solver == "direct":
            result = self._op.solve_direct(plan.rhs, tol=plan.tol)
        else:
            result = self._op.solve(plan.rhs, x0=plan.x0, tol=plan.tol,
                                    max_iter=plan.max_iter)
        return self.finish_step(plan, result)

    # -- compute-plane protocol ----------------------------------------------

    def begin_step(self, inbox: dict[int, Any]) -> StepPlan:
        """The pre-solve half of an iteration: inbox fold, rhs assembly and
        old-iterate snapshot; the inner solve itself is described by the
        returned plan."""
        blk = self.blk
        self._fold_inbox(inbox)
        if self.ext.size:
            csr_matvec_into(blk.B_coupling, self.ext, self._rhs)
            np.subtract(blk.b_local, self._rhs, out=self._rhs)
            rhs = self._rhs
        else:
            rhs = blk.b_local  # read-only; the solver never writes b
        np.copyto(self._old_owned, blk.owned_of(self.x))
        extra = 2.0 * blk.B_coupling.nnz + 2.0 * blk.n_ext
        if self.inner_solver == "direct" and blk.n_ext <= self.direct_max_rows:
            return StepPlan(solver="direct", operator=self._op, rhs=rhs,
                            tol=self.inner_tol, flops_extra=extra)
        return StepPlan(solver="cg", operator=self._op, rhs=rhs,
                        x0=self.x if self.warm_start else None,
                        tol=self.inner_tol, max_iter=self.inner_max_iter,
                        flops_extra=extra)

    def finish_step(self, plan: StepPlan, result: Any) -> IterationStep:
        blk = self.blk
        self.x = result.x
        distance = update_distance(blk.owned_of(self.x), self._old_owned,
                                   work=self._dist_work)
        return IterationStep(
            flops=result.flops + plan.flops_extra,
            outgoing=blk.outgoing_payloads(self.x),
            local_distance=distance,
            info={"inner_iterations": result.iterations},
        )

    def solution_fragment(self) -> tuple[int, np.ndarray]:
        """(global offset, owned values) — the harness stitches these."""
        blk = self.blk
        return (blk.own_start, blk.owned_of(self.x).copy())


def make_poisson_app(
    app_id: str,
    n: int,
    num_tasks: int,
    overlap: int = 0,
    problem: str = "manufactured",
    inner_tol: float = 1e-10,
    inner_max_iter: int | None = None,
    warm_start: bool = False,
    inner_solver: str = "cg",
    convergence_threshold: float | None = None,
    stability_window: int | None = None,
    reject_corruption: bool = False,
) -> AppSpec:
    """Convenience AppSpec builder for the Poisson application."""
    params = {
        "n": n,
        "overlap": overlap,
        "problem": problem,
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
        stability_window=stability_window,
    )
