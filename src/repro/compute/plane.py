"""The compute plane: shared operators and the solve counters.

A :class:`ComputePlane` is a cluster-wide *wall-clock* object: it never
touches the DES.  The Daemon hands it to tasks as
:attr:`repro.p2p.task.TaskContext.compute`; a task that wants it asks
:meth:`ComputePlane.operator_for` for the canonical operator of its
matrix and solves on that exactly as it would on its own
:class:`~repro.numerics.cg.CgOperator`.  The plane keeps two jobs:

* **operator sharing** — operators holding byte-identical matrices
  resolve to one canonical :class:`~repro.numerics.cg.CgOperator`: one
  direct-solve factor per strip shape and one set of scratch buffers
  serve them all (the matrices are byte-identical, so every result is
  exactly what the task's own operator would produce);
* **the run's solve counters** — ``memo_hits`` and ``loop_columns``,
  which :class:`~repro.apps.poisson_task.PoissonTask` increments: its
  last-solve memo (kept on the task, keyed on the rhs rows neighbours
  reach) replays an identical request — the asynchronous "useless
  iteration" pattern where no fresh neighbour data arrived — without
  re-solving.
"""

from __future__ import annotations

import hashlib

__all__ = ["ComputePlane"]


class ComputePlane:
    """Cluster-wide operator sharing and solve counters (wall-clock only)."""

    __slots__ = ("_operators", "memo_hits", "loop_columns")

    def __init__(self):
        #: fingerprint -> canonical operators (a list: byte-equality is
        #: re-verified on join, so a hash collision degrades to a second
        #: operator, never to a shared one across matrices)
        self._operators: dict[bytes, list] = {}
        #: solves replayed from a task's last-solve memo
        self.memo_hits = 0
        #: solves the tasks actually ran (memo replays excluded)
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

    def operator_for(self, op):
        """The canonical operator whose matrix matches ``op.A`` (``op``
        itself when it is the first of its cohort)."""
        ops = self._operators.setdefault(self._fingerprint(op.A), [])
        for canonical in ops:
            if self._same_matrix(op.A, canonical.A):
                return canonical
        ops.append(op)
        return op

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
