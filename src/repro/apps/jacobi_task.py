"""Point-Jacobi strips: the cheap-iteration contrast application.

Each asynchronous iteration performs ``sweeps`` point-Jacobi relaxations on
the local strip instead of an exact block solve.  Compute per iteration is
tiny, so the compute/communication ratio — the paper's ratio (4) — is small:
this app maximises the "useless iteration" phenomenon and stresses the
messaging layer.
"""

from __future__ import annotations

import numpy as np

from repro.apps.strip import StripTask
from repro.numerics.cg import matvec_kernel
from repro.numerics.csr import CsrMatrix
from repro.p2p.messages import AppSpec
from repro.p2p.task import TaskContext

__all__ = ["JacobiTask", "make_jacobi_app"]


class JacobiTask(StripTask):
    """One strip relaxed with point-Jacobi sweeps.

    ``ctx.params``: ``n`` (grid size), ``sweeps`` (relaxations per
    asynchronous iteration, default 1), ``problem`` (``"manufactured"``,
    the default, or ``"plate"``).
    """

    def setup(self, ctx: TaskContext) -> None:
        super().setup(ctx)
        self.sweeps = int(ctx.params.get("sweeps", 1))
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        self._setup_problem(ctx, "jacobi", "manufactured")
        blk = self.blk
        cached = blk.op_cache.get("jacobi")
        if cached is not None:
            self.inv_diag, self.R, self._r_kernel = cached
        else:
            import scipy.sparse as sp
            A = blk.A_local.to_scipy()
            diag = A.diagonal()
            if (diag == 0).any():
                raise ValueError("Jacobi needs a nonzero diagonal")
            self.inv_diag = 1.0 / diag
            #: local matrix without its diagonal (for x_new = D^{-1}(b - R x))
            self.R = CsrMatrix.of(A - sp.diags(diag))
            self.inv_diag.flags.writeable = False
            #: ``R @ x`` into a zeroed buffer, the kernel choice CgOperator
            #: makes for A
            self._r_kernel = matvec_kernel(self.R)
            blk.op_cache["jacobi"] = (self.inv_diag, self.R, self._r_kernel)
        self._sweep_buf = np.empty(blk.n_ext)

    def _update(self, rhs: np.ndarray) -> tuple[np.ndarray, float, dict]:
        blk = self.blk
        buf = self._sweep_buf
        x = self.x
        for _ in range(self.sweeps):
            # inv_diag * (rhs - R@x) through the buffer
            buf.fill(0.0)
            self._r_kernel(x, buf)
            np.subtract(rhs, buf, out=buf)
            x = self.inv_diag * buf
        flops = self.sweeps * (2.0 * self.R.nnz + 3.0 * blk.n_ext) + 2.0 * blk.B_coupling.nnz
        return x, flops, {}


def make_jacobi_app(
    app_id: str,
    n: int,
    num_tasks: int,
) -> AppSpec:
    return AppSpec(
        app_id=app_id,
        task_factory=JacobiTask,
        num_tasks=num_tasks,
        params={"n": n, "sweeps": 1, "problem": "manufactured"},
    )
