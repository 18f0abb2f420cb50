"""The batched compute plane: cohort-vectorized inner solves.

A :class:`ComputePlane` is a cluster-wide *wall-clock* object: it never
touches the DES.  Task runners whose tasks expose the
``begin_step``/``finish_step`` protocol (:class:`repro.p2p.task.StepPlan`)
register a :class:`CohortMember` per live task; members whose operators hold
byte-identical matrices share one :class:`Cohort` — one LU factorization,
one set of preallocated SoA work arrays, one batching queue.

The scheduling trick is **lazy deferral**: when an inner solve's simulated
duration is known *before* the solve runs (direct solves are analytically
costed; CG solves whose worst-case cost is still pinned to the
``min_iteration_time`` floor), the runner charges the DES timeout
immediately and the numeric work is parked as a cohort ticket.  The first
observer of any deferred result — normally a runner waking from its
iteration timeout, or ``halt``/``fetch_solution`` arriving mid-sleep —
flushes the whole cohort in one batched call.  Because deferral never
changes a duration, the event sequence, simulated times and results are
identical to the eager path; only *when in wall-clock* the arithmetic runs
moves.

Direct flushes solve singleton tickets as single vectors; larger batches
run a one-time per-cohort :func:`panel_probe` and use stacked multi-RHS
panels only when the probe proves them bitwise equal to the 1-D path
(otherwise a per-column 1-D loop — still one shared factorization).

Cross-cutting: a per-member memo of the last solve replays identical
``(rhs, x0, tol, max_iter)`` requests — the asynchronous "useless
iteration" pattern where no fresh neighbour data arrived — without
re-solving.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.numerics.cg import (CgResult, cg_flops_estimate,
                               direct_flops_estimate)

from repro.compute.batched import (DIRECT_CHUNK, batched_cg,
                                   chunked_direct_solve, panel_probe)

__all__ = ["ComputePlane", "Cohort", "CohortMember"]


class CohortMember:
    """One task runner's seat in a cohort."""

    __slots__ = ("cohort", "pending", "ready", "memo_key", "memo_result")

    def __init__(self, cohort: "Cohort"):
        self.cohort = cohort
        #: the deferred plan awaiting the next cohort flush (or None)
        self.pending = None
        #: the flushed result awaiting collection (or None)
        self.ready: CgResult | None = None
        self.memo_key = None
        self.memo_result: CgResult | None = None


class Cohort:
    """All members solving against one matrix (matched byte-for-byte)."""

    __slots__ = ("op", "member_count", "queue", "probed", "panel_ok",
                 "_panel", "_cg_ws")

    def __init__(self, op):
        #: canonical operator — one factorization and one set of scratch
        #: buffers serve every member (their matrices are byte-identical,
        #: so every result is exactly what the member's own operator would
        #: produce)
        self.op = op
        self.member_count = 0
        #: parked tickets: ``(member, plan, memo key built by begin())``
        self.queue: list[tuple[CohortMember, object, object]] = []
        self.probed = False
        self.panel_ok = False
        self._panel: np.ndarray | None = None
        #: batched-CG workspaces keyed by exact batch size
        self._cg_ws: dict[int, tuple] = {}

    def panel(self) -> np.ndarray:
        if self._panel is None:
            self._panel = np.empty((self.op.n, DIRECT_CHUNK))
        return self._panel

    @property
    def lu_nnz(self) -> int:
        return self.op.lu_nnz


class ComputePlane:
    """Cluster-wide batching fabric for inner solves (wall-clock only)."""

    __slots__ = ("_cohorts", "flushes", "deferred", "immediate", "memo_hits",
                 "batched_columns", "loop_columns", "batch_sizes")

    def __init__(self):
        #: fingerprint -> cohorts (a list: byte-equality is re-verified on
        #: join, so a hash collision degrades to a second cohort, never to
        #: cross-matrix batching)
        self._cohorts: dict[bytes, list[Cohort]] = {}
        self.flushes = 0
        self.deferred = 0
        self.immediate = 0
        self.memo_hits = 0
        self.batched_columns = 0
        self.loop_columns = 0
        self.batch_sizes: dict[int, int] = {}

    # -- membership ----------------------------------------------------------

    @staticmethod
    def _fingerprint(A) -> bytes:
        h = hashlib.sha1()
        h.update(repr(A.shape).encode())
        h.update(A.indptr)
        h.update(A.indices)
        h.update(A.data)
        return h.digest()

    @staticmethod
    def _same_matrix(a, b) -> bool:
        return (a is b or (
            a.shape == b.shape
            and a.indptr.tobytes() == b.indptr.tobytes()
            and a.indices.tobytes() == b.indices.tobytes()
            and a.data.tobytes() == b.data.tobytes()
        ))

    def member_for(self, op) -> CohortMember:
        """Join (or found) the cohort whose matrix matches ``op.A``."""
        fp = self._fingerprint(op.A)
        cohorts = self._cohorts.setdefault(fp, [])
        for cohort in cohorts:
            if self._same_matrix(op.A, cohort.op.A):
                break
        else:
            cohort = Cohort(op)
            cohorts.append(cohort)
        cohort.member_count += 1
        return CohortMember(cohort)

    def discard(self, member: CohortMember) -> None:
        """Drop a member (runner finished or crashed mid-defer).

        A pending ticket is abandoned unsolved — the crashed task's result
        was lost either way.  Cohort siblings are unaffected: fixed-width
        zero-padded chunks keep their per-column arithmetic independent of
        batch composition.
        """
        cohort = member.cohort
        if member.pending is not None:
            cohort.queue = [t for t in cohort.queue if t[0] is not member]
            member.pending = None
        member.ready = None
        member.memo_result = None
        cohort.member_count -= 1

    # -- scheduling ----------------------------------------------------------

    def begin(self, member: CohortMember, plan, *, rate: float,
              overhead: float, floor: float):
        """Route one plan: returns ``(duration, result)``.

        * ``result`` not None — the solve already ran (memo replay or an
          eager CG); the runner derives the duration from the finished
          step exactly as the monolithic path does (``duration`` is None).
        * ``result`` None — the solve was deferred; ``duration`` is its
          (already exact) simulated length.  The runner must call
          :meth:`collect` before the task's state is next observed.
        """
        cohort = member.cohort
        op = cohort.op
        key = self._memo_key(plan)
        if key is not None and key == member.memo_key:
            self.memo_hits += 1
            return None, self._replay(member.memo_result)
        if plan.solver == "direct":
            flops = (direct_flops_estimate(cohort.lu_nnz, op.n)
                     + plan.flops_extra)
            duration = max(flops / rate + overhead, floor)
            self.deferred += 1
            member.pending = plan
            cohort.queue.append((member, plan, key))
            return duration, None
        if self._cg_pinned(plan, op, rate=rate, overhead=overhead,
                           floor=floor):
            self.deferred += 1
            member.pending = plan
            cohort.queue.append((member, plan, key))
            return floor, None
        result = op.solve(plan.rhs, x0=plan.x0, tol=plan.tol,
                          max_iter=plan.max_iter)
        self.immediate += 1
        self._memoize(member, key, result)
        return None, result

    def collect(self, member: CohortMember) -> CgResult:
        """The deferred result — flushing the whole cohort if still parked."""
        if member.pending is not None:
            self._flush(member.cohort)
        result, member.ready = member.ready, None
        if result is None:
            raise RuntimeError("collect() without a deferred solve")
        return result

    @staticmethod
    def _cg_pinned(plan, op, *, rate: float, overhead: float,
                   floor: float) -> bool:
        """Is this CG solve's duration provably the floor, whatever the
        iteration count turns out to be?  Only then may it defer."""
        cap = plan.max_iter if plan.max_iter is not None else max(
            10 * op.n, 100)
        worst = cg_flops_estimate(op.nnz, op.n, cap) + plan.flops_extra
        return worst / rate + overhead <= floor

    # -- memo ----------------------------------------------------------------

    @staticmethod
    def _memo_key(plan):
        rhs = plan.rhs
        if not isinstance(rhs, np.ndarray):
            return None
        x0 = plan.x0
        return (plan.solver, rhs.tobytes(),
                None if x0 is None else x0.tobytes(),
                plan.tol, plan.max_iter)

    def _memoize(self, member: CohortMember, key, result: CgResult) -> None:
        if key is None:
            member.memo_key = None
            member.memo_result = None
            return
        member.memo_key = key
        # a private copy: the caller's x becomes live task state and may
        # base in-flight zero-copy views — the memo must never alias it
        member.memo_result = CgResult(
            x=result.x.copy(), converged=result.converged,
            iterations=result.iterations,
            residual_norm=result.residual_norm, flops=result.flops,
            residual_history=[])

    @staticmethod
    def _replay(memo: CgResult) -> CgResult:
        return CgResult(
            x=memo.x.copy(), converged=memo.converged,
            iterations=memo.iterations, residual_norm=memo.residual_norm,
            flops=memo.flops, residual_history=[])

    # -- flushing ------------------------------------------------------------

    def _flush(self, cohort: Cohort) -> None:
        queue, cohort.queue = cohort.queue, []
        if not queue:
            return
        self.flushes += 1
        k = len(queue)
        self.batch_sizes[k] = self.batch_sizes.get(k, 0) + 1
        directs = [t for t in queue if t[1].solver == "direct"]
        cgs = [t for t in queue if t[1].solver != "direct"]
        if directs:
            self._flush_direct(cohort, directs)
        if cgs:
            self._flush_cg(cohort, cgs)

    def _flush_direct(self, cohort: Cohort, tickets: list) -> None:
        op = cohort.op
        lu = op.factorization()
        rhs_list = [p.rhs for _, p, _ in tickets]
        if len(rhs_list) == 1:
            xs = [lu.solve(rhs_list[0])]
            self.loop_columns += 1
        else:
            if not cohort.probed:
                cohort.panel_ok = panel_probe(lu, op.n, cohort.panel())
                cohort.probed = True
            if cohort.panel_ok:
                xs = chunked_direct_solve(lu, rhs_list, cohort.panel())
                self.batched_columns += len(xs)
            else:
                xs = [lu.solve(r) for r in rhs_list]
                self.loop_columns += len(xs)
        for (member, plan, key), x in zip(tickets, xs):
            result = op.direct_result(x, plan.rhs, plan.tol)
            self._finish_ticket(member, key, result)

    def _flush_cg(self, cohort: Cohort, tickets: list) -> None:
        requests = [(p.rhs, p.x0, p.tol, p.max_iter) for _, p, _ in tickets]
        results = batched_cg(cohort.op, requests, cohort._cg_ws)
        self.batched_columns += len(results)
        for (member, _, key), result in zip(tickets, results):
            self._finish_ticket(member, key, result)

    def _finish_ticket(self, member: CohortMember, key,
                       result: CgResult) -> None:
        member.pending = None
        member.ready = result
        self._memoize(member, key, result)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "cohorts": sum(len(v) for v in self._cohorts.values()),
            "flushes": self.flushes,
            "deferred": self.deferred,
            "immediate": self.immediate,
            "memo_hits": self.memo_hits,
            "batched_columns": self.batched_columns,
            "loop_columns": self.loop_columns,
            "batch_sizes": dict(sorted(self.batch_sizes.items())),
        }
