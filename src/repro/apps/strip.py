"""The strip plumbing every application shares.

All five applications split a 2-D grid system into row strips
(:func:`repro.numerics.shared_decomposition`) and run the same
asynchronous iteration around a different local update:

1. fold the freshest neighbour boundary lines into the external-value
   vector (stale values persist when nothing arrived — chaotic
   relaxation), each through :meth:`Task.guard_payload`;
2. assemble the local right-hand side ``b_local − B_coupling·ext`` and
   snapshot the owned iterate;
3. run the app's local update (:meth:`StripTask._update`);
4. report the max-norm relative distance between successive owned
   iterates and send one grid line to each neighbour.

:class:`StripTask` owns steps 1, 2 and 4, the checkpointable state
(``x`` and ``ext``) and the solution fragment; an app supplies its setup
specifics and step 3.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.numerics.cg import csr_matvec_into
from repro.numerics.poisson import Poisson2D
from repro.numerics.residual import update_distance
from repro.numerics.splitting import shared_decomposition
from repro.p2p.task import IterationStep, Task, TaskContext

__all__ = ["StripTask"]

#: the named global systems behind the ``problem`` parameter
PROBLEMS = {
    "manufactured": Poisson2D.manufactured,
    "plate": Poisson2D.heat_plate,
}


class StripTask(Task):
    """One row strip of a block decomposition, iterated asynchronously.

    Subclasses call :meth:`_setup_strip` (or :meth:`_setup_problem`) from
    :meth:`setup` and implement :meth:`_update`.
    """

    def _setup_strip(self, ctx: TaskContext, key: tuple, build_system,
                     overlap: int = 0):
        """Adopt this task's block of the shared decomposition of
        ``build_system()`` (memoized under ``key``); returns the
        decomposition."""
        n = int(ctx.params["n"])
        decomp = shared_decomposition(key, build_system,
                                      nblocks=ctx.num_tasks, line=n,
                                      overlap=overlap)
        blk = self.blk = decomp.blocks[ctx.task_id]
        self.x = np.zeros(blk.n_ext)
        self.ext = np.zeros(blk.ext_cols.size)
        self._rhs = np.empty(blk.n_ext)
        self._old_owned = np.empty(blk.n_owned)
        self._dist_work = np.empty(blk.n_owned)
        return decomp

    def _setup_problem(self, ctx: TaskContext, app: str, default: str,
                       overlap: int = 0):
        """:meth:`_setup_strip` on the system ``params["problem"]`` names
        (one of :data:`PROBLEMS`)."""
        problem = ctx.params.get("problem", default)
        build = PROBLEMS.get(problem)
        if build is None:
            raise ValueError(f"unknown problem {problem!r}")
        n = int(ctx.params["n"])

        def build_system():
            prob = build(n)
            return prob.A, prob.b

        return self._setup_strip(ctx, (app, problem, n), build_system,
                                 overlap)

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

    def iterate(self, inbox: dict[int, Any]) -> IterationStep:
        blk = self.blk
        for src_task, payload in inbox.items():
            positions = blk.ext_sources.get(src_task)
            if positions is None:
                continue  # not one of our suppliers: drop
            values = np.asarray(payload, dtype=float)
            if values.shape == (positions.size,):
                self.ext[positions] = self.guard_payload(src_task, values)
        if self.ext.size:
            csr_matvec_into(blk.B_coupling, self.ext, self._rhs)
            np.subtract(blk.b_local, self._rhs, out=self._rhs)
            rhs = self._rhs
        else:
            rhs = blk.b_local  # read-only; no update writes its rhs
        np.copyto(self._old_owned, blk.owned_of(self.x))
        self.x, flops, info = self._update(rhs)
        distance = update_distance(blk.owned_of(self.x), self._old_owned,
                                   work=self._dist_work)
        return IterationStep(flops=flops,
                             outgoing=blk.outgoing_payloads(self.x),
                             local_distance=distance, info=info)

    def _update(self, rhs: np.ndarray) -> tuple[np.ndarray, float, dict]:
        """The app's local update from ``self.x`` given the assembled rhs:
        returns the new local iterate (a fresh array, never ``self.x``
        itself), the iteration's flop estimate and diagnostics."""
        raise NotImplementedError

    # -- results ---------------------------------------------------------------

    def solution_fragment(self) -> tuple[int, np.ndarray]:
        """(global offset, owned values) — the harness stitches these."""
        blk = self.blk
        return (blk.own_start, blk.owned_of(self.x).copy())
