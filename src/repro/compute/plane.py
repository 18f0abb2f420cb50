"""The compute plane: shared operators and a last-solve memo.

A :class:`ComputePlane` is a cluster-wide *wall-clock* object: it never
touches the DES.  The Daemon hands it to tasks as
:attr:`repro.p2p.task.TaskContext.compute`; a task that wants it takes a
:class:`CohortMember` seat for its operator and solves on the seat exactly
as it would on the :class:`~repro.numerics.cg.CgOperator` itself.  The
plane keeps exactly two jobs:

* **operator sharing** — seats whose operators hold byte-identical
  matrices form a cohort on one canonical
  :class:`~repro.numerics.cg.CgOperator`: one direct-solve factor per
  strip shape and one set of scratch buffers serve them all (the
  matrices are byte-identical, so every result is exactly what the
  task's own operator would produce);
* **the solve memo** — a per-seat copy of the last solve replays an
  identical request — the asynchronous "useless iteration" pattern where
  no fresh neighbour data arrived — without re-solving.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.numerics.cg import CgResult

__all__ = ["ComputePlane", "CohortMember"]


class CohortMember:
    """One task's seat: the canonical operator and its solve memo.

    :meth:`solve` and :meth:`solve_direct` have
    :class:`~repro.numerics.cg.CgOperator`'s signatures, so a task holds
    either one as its solver.
    """

    __slots__ = ("op", "plane", "memo_key", "memo_result")

    def __init__(self, op, plane: "ComputePlane"):
        self.op = op
        #: counts this seat's memo hits and solves
        self.plane = plane
        self.memo_key = None
        self.memo_result: CgResult | None = None

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None,
              tol: float = 1e-10, max_iter: int | None = None) -> CgResult:
        key = ("cg", b.tobytes(), None if x0 is None else x0.tobytes(),
               tol, max_iter)
        if key == self.memo_key:
            return self._replay()
        return self._record(key, self.op.solve(b, x0=x0, tol=tol,
                                               max_iter=max_iter))

    def solve_direct(self, b: np.ndarray, tol: float = 1e-10) -> CgResult:
        key = ("direct", b.tobytes(), tol)
        if key == self.memo_key:
            return self._replay()
        return self._record(key, self.op.solve_direct(b, tol=tol))

    def _replay(self) -> CgResult:
        self.plane.memo_hits += 1
        return _copy(self.memo_result)

    def _record(self, key, result: CgResult) -> CgResult:
        self.plane.loop_columns += 1
        self.memo_key = key
        # a private copy: the caller's x becomes live task state and may
        # base in-flight zero-copy views — the memo must never alias it
        self.memo_result = _copy(result)
        return result


def _copy(result: CgResult) -> CgResult:
    return CgResult(
        x=result.x.copy(), converged=result.converged,
        iterations=result.iterations,
        residual_norm=result.residual_norm, flops=result.flops,
        residual_history=[])


class ComputePlane:
    """Cluster-wide operator sharing and solve memo (wall-clock only)."""

    __slots__ = ("_operators", "memo_hits", "loop_columns")

    def __init__(self):
        #: fingerprint -> canonical operators (a list: byte-equality is
        #: re-verified on join, so a hash collision degrades to a second
        #: operator, never to a shared one across matrices)
        self._operators: dict[bytes, list] = {}
        self.memo_hits = 0
        #: solves the seats actually ran (memo replays excluded)
        self.loop_columns = 0

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
        return CohortMember(canonical, self)

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
