"""Reference last-solve memo: keyed on the whole rhs, replaying copies.

The memo as it sat on a compute-plane seat before it moved onto
:class:`repro.apps.poisson_task.PoissonTask`: one per task, keyed on the
solver kind, every byte of the assembled rhs, the ``x0`` bytes of a warm
start and the tolerances, storing and replaying private copies of the
result.  The task's memo — keyed on the coupled rhs rows only and holding
its result by reference — must hit and miss exactly where this one does.
"""

from __future__ import annotations

import numpy as np

from repro.numerics.cg import CgResult


class FullRhsMemo:
    """One task's reference memo in front of an operator ``op``."""

    def __init__(self, op):
        self.op = op
        self.key = None
        self.result: CgResult | None = None
        self.hits = 0
        self.solves = 0

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None,
              tol: float = 1e-10, max_iter: int | None = None) -> CgResult:
        key = ("cg", b.tobytes(), None if x0 is None else x0.tobytes(),
               tol, max_iter)
        if key == self.key:
            return self._replay()
        return self._record(key, self.op.solve(b, x0=x0, tol=tol,
                                               max_iter=max_iter))

    def solve_direct(self, b: np.ndarray, tol: float = 1e-10) -> CgResult:
        key = ("direct", b.tobytes(), tol)
        if key == self.key:
            return self._replay()
        return self._record(key, self.op.solve_direct(b, tol=tol))

    def _replay(self) -> CgResult:
        self.hits += 1
        return _copy(self.result)

    def _record(self, key, result: CgResult) -> CgResult:
        self.solves += 1
        self.key = key
        self.result = _copy(result)
        return result


def _copy(result: CgResult) -> CgResult:
    return CgResult(x=result.x.copy(), converged=result.converged,
                    iterations=result.iterations,
                    residual_norm=result.residual_norm, flops=result.flops)
