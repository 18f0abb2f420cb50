"""The strip plumbing every application shares.

All five applications split a 2-D grid system into row strips
(:func:`repro.numerics.shared_decomposition`) and run the same
asynchronous iteration around a different local update:

1. fold the freshest neighbour boundary lines into the external-value
   vector (stale values persist when nothing arrived — chaotic
   relaxation), each through :meth:`Task.guard_payload`;
2. assemble the local right-hand side ``b_local − B_coupling·ext``;
3. run the app's local update (:meth:`StripTask._update`);
4. report the max-norm relative distance between successive owned
   iterates and send one grid line to each neighbour.

:class:`StripTask` owns steps 1, 2 and 4, the checkpointable state
(``x`` and ``ext``) and the solution fragment; an app supplies its setup
specifics and step 3.

The per-iteration host work outside step 3 scales with the boundary, not
with the strip.  The rhs buffer lives as long as the task: only the few
grid lines ``B_coupling`` reaches (the *coupled rows*) depend on ``ext``,
so the others hold ``b_local`` for good and each iteration rebuilds just
the coupled rows, through ``B_coupling`` restricted to them — every row
adds the same terms in the same order as the full product, so the rhs is
byte-identical to ``b_local − B_coupling·ext``.  Iterates are immutable:
the array ``_update`` returns is frozen (``writeable=False``) and becomes
``x``, so the update distance reads a view of the previous iterate
rather than a copy, and the zero-copy boundary payloads
(:meth:`~repro.numerics.splitting.Block.outgoing_payloads`) can never
see a later write.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.numerics.poisson import Poisson2D
from repro.numerics.residual import update_distance
from repro.numerics.splitting import BlockDecomposition, shared_decomposition
from repro.p2p.task import IterationStep, Task, TaskContext

__all__ = ["StripTask"]

#: the named global systems behind the ``problem`` parameter
PROBLEMS = {
    "manufactured": Poisson2D.manufactured,
    "plate": Poisson2D.heat_plate,
}


def problem_decomposition(app: str, problem: str, n: int, nblocks: int,
                          overlap: int) -> BlockDecomposition:
    """The shared decomposition ``app``'s tasks iterate on: the named
    ``problem`` (one of :data:`PROBLEMS`) on the ``n × n`` grid, split into
    ``nblocks`` strips of whole lines with ``overlap``."""
    build = PROBLEMS.get(problem)
    if build is None:
        raise ValueError(f"unknown problem {problem!r}")

    def build_system():
        prob = build(n)
        return prob.A, prob.b

    return shared_decomposition((app, problem, n), build_system,
                                nblocks=nblocks, line=n, overlap=overlap)


class StripTask(Task):
    """One row strip of a block decomposition, iterated asynchronously.

    Subclasses call :meth:`_setup_strip` (or :meth:`_setup_problem`) from
    :meth:`setup` and implement :meth:`_update`.
    """

    def _setup_strip(self, ctx: TaskContext, decomp: BlockDecomposition):
        """Adopt this task's block of the (shared) ``decomp``; returns
        ``decomp``."""
        blk = self.blk = decomp.blocks[ctx.task_id]
        self.x = np.zeros(blk.n_ext)
        self.ext = np.zeros(blk.ext_cols.size)
        self._rows, self._B_rows, self._b_rows = blk.coupled_rows()
        #: the rhs buffer: uncoupled rows hold ``b_local`` for good
        self._rhs = blk.b_local.copy()
        #: what ``_update`` reads: a frozen view, so no update can write
        #: the buffer the next iteration builds on
        self._rhs_in = self._rhs[:]
        self._rhs_in.flags.writeable = False
        #: this iteration's coupled rhs rows (``_rhs[_rows]``)
        self._coupled_rhs = np.empty(self._rows.size)
        self._dist_work = np.empty(blk.n_owned)
        return decomp

    def _setup_problem(self, ctx: TaskContext, app: str, default: str,
                       overlap: int = 0):
        """:meth:`_setup_strip` on the system ``params["problem"]`` names
        (one of :data:`PROBLEMS`)."""
        return self._setup_strip(ctx, problem_decomposition(
            app, ctx.params.get("problem", default), int(ctx.params["n"]),
            ctx.num_tasks, overlap))

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
        old = blk.owned_of(self.x)
        x, flops, info = self._update(self._assemble_rhs())
        x.flags.writeable = False
        self.x = x
        distance = update_distance(blk.owned_of(x), old,
                                   work=self._dist_work)
        return IterationStep(flops=flops, outgoing=blk.outgoing_payloads(x),
                             local_distance=distance, info=info)

    def _assemble_rhs(self) -> np.ndarray:
        """``b_local − B_coupling·ext``, byte for byte, rebuilding only the
        coupled rows; returns the frozen view of the rhs buffer."""
        if self._rows.size:
            coupled = self._B_rows.matvec_into(self.ext, self._coupled_rhs)
            np.subtract(self._b_rows, coupled, out=coupled)
            self._rhs[self._rows] = coupled
        return self._rhs_in

    def _update(self, rhs: np.ndarray) -> tuple[np.ndarray, float, dict]:
        """The app's local update from ``self.x`` given the assembled
        (read-only) rhs: returns the new local iterate, the iteration's
        flop estimate and diagnostics.  The iterate must never be written
        after it is returned — :meth:`iterate` freezes it — so an update
        builds a new array (or returns an earlier, unchanged one)."""
        raise NotImplementedError

    # -- results ---------------------------------------------------------------

    def solution_fragment(self) -> tuple[int, np.ndarray]:
        """(global offset, owned values) — the harness stitches these."""
        blk = self.blk
        return (blk.own_start, blk.owned_of(self.x).copy())
