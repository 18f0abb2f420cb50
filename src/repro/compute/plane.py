"""The compute plane: shared operators and a last-solve memo.

A :class:`ComputePlane` is a cluster-wide *wall-clock* object: it never
touches the DES.  Task runners whose tasks expose the
``begin_step``/``finish_step`` protocol (:class:`repro.p2p.task.StepPlan`)
register a :class:`CohortMember` per live task and route every inner solve
through :meth:`ComputePlane.solve`, which runs it on the spot.  The plane
keeps exactly two jobs:

* **operator sharing** — members whose operators hold byte-identical
  matrices form a cohort on one canonical
  :class:`~repro.numerics.cg.CgOperator`: one LU factorization per strip
  shape and one set of scratch buffers serve them all (the matrices are
  byte-identical, so every result is exactly what the member's own
  operator would produce);
* **the solve memo** — a per-member copy of the last solve replays an
  identical ``(rhs, x0, tol, max_iter)`` request — the asynchronous
  "useless iteration" pattern where no fresh neighbour data arrived —
  without re-solving.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.numerics.cg import CgResult

__all__ = ["ComputePlane", "CohortMember"]


class CohortMember:
    """One task runner's seat: the canonical operator and its solve memo."""

    __slots__ = ("op", "memo_key", "memo_result")

    def __init__(self, op):
        self.op = op
        self.memo_key = None
        self.memo_result: CgResult | None = None


class ComputePlane:
    """Cluster-wide operator sharing and solve memo (wall-clock only)."""

    __slots__ = ("_operators", "memo_hits", "loop_columns")

    def __init__(self):
        #: fingerprint -> canonical operators (a list: byte-equality is
        #: re-verified on join, so a hash collision degrades to a second
        #: operator, never to a shared one across matrices)
        self._operators: dict[bytes, list] = {}
        self.memo_hits = 0
        #: solves the plane actually ran (memo replays excluded)
        self.loop_columns = 0

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
        """A seat on the canonical operator whose matrix matches ``op.A``."""
        ops = self._operators.setdefault(self._fingerprint(op.A), [])
        for canonical in ops:
            if self._same_matrix(op.A, canonical.A):
                break
        else:
            canonical = op
            ops.append(op)
        return CohortMember(canonical)

    # -- solving -------------------------------------------------------------

    def solve(self, member: CohortMember, plan) -> CgResult:
        """The inner solve ``plan`` describes: a memo replay, or a solve on
        the member's canonical operator."""
        key = self._memo_key(plan)
        if key is not None and key == member.memo_key:
            self.memo_hits += 1
            return self._copy(member.memo_result)
        op = member.op
        if plan.solver == "direct":
            result = op.solve_direct(plan.rhs, tol=plan.tol)
        else:
            result = op.solve(plan.rhs, x0=plan.x0, tol=plan.tol,
                              max_iter=plan.max_iter)
        self.loop_columns += 1
        member.memo_key = key
        # a private copy: the caller's x becomes live task state and may
        # base in-flight zero-copy views — the memo must never alias it
        member.memo_result = None if key is None else self._copy(result)
        return result

    @staticmethod
    def _memo_key(plan):
        rhs = plan.rhs
        if not isinstance(rhs, np.ndarray):
            return None
        x0 = plan.x0
        return (plan.solver, rhs.tobytes(),
                None if x0 is None else x0.tobytes(),
                plan.tol, plan.max_iter)

    @staticmethod
    def _copy(result: CgResult) -> CgResult:
        return CgResult(
            x=result.x.copy(), converged=result.converged,
            iterations=result.iterations,
            residual_norm=result.residual_norm, flops=result.flops,
            residual_history=[])

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "cohorts": sum(len(v) for v in self._operators.values()),
            "memo_hits": self.memo_hits,
            "loop_columns": self.loop_columns,
            # always 0 (no deferral or batching left); the next benchmark
            # PR drops them from the ledger, which still reads them
            "flushes": 0,
            "deferred": 0,
            "batched_columns": 0,
        }
