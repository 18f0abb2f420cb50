"""Sequential reference solver for the block-Jacobi multisplitting.

:func:`block_jacobi` runs the *same* mathematics as the distributed runtime,
without any network, and serves as ground truth: the synchronous outer
iteration, where every block solves with the neighbours' values from the
previous sweep.  Its chaotic (asynchronous) counterpart is a test oracle,
``tests/oracles/chaotic_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numerics.cg import conjugate_gradient
from repro.numerics.splitting import BlockDecomposition

__all__ = ["JacobiResult", "block_jacobi"]

#: Relative tolerance of every block's inner CG solve.
INNER_TOL = 1e-10


@dataclass
class JacobiResult:
    """Outcome of an outer block-Jacobi run."""

    x: np.ndarray
    converged: bool
    outer_iterations: int
    residual_norm: float
    flops_total: float = 0.0


def _solve_blocks_once(
    decomp: BlockDecomposition,
    x_locals: list[np.ndarray],
    which: list[int],
    read_global: np.ndarray,
) -> float:
    """In-place sub-iteration for the chosen blocks; returns its flops."""
    flops = 0.0
    for k in which:
        blk = decomp.blocks[k]
        ext_vals = read_global[blk.ext_cols] if blk.ext_cols.size else np.empty(0)
        rhs = decomp.local_rhs(k, ext_vals)
        result = conjugate_gradient(
            blk.A_local, rhs, x0=x_locals[k], tol=INNER_TOL
        )
        x_locals[k] = result.x
        flops += result.flops
    return flops


def block_jacobi(
    decomp: BlockDecomposition,
    tol: float = 1e-8,
    max_outer: int = 10_000,
) -> JacobiResult:
    """Synchronous block-Jacobi with inner CG.

    Convergence: relative residual of the assembled global iterate below
    ``tol``.
    """
    x_locals = [np.zeros(blk.n_ext) for blk in decomp.blocks]
    b_norm = max(float(np.linalg.norm(decomp.b)), 1e-300)
    res, flops_total = float("inf"), 0.0

    for outer in range(1, max_outer + 1):
        x_global = decomp.assemble(x_locals)
        flops_total += _solve_blocks_once(
            decomp, x_locals, list(range(decomp.nblocks)), x_global
        )
        x_new = decomp.assemble(x_locals)
        res = float(np.linalg.norm(decomp.b - decomp.A @ x_new)) / b_norm
        if res <= tol:
            return JacobiResult(
                x=x_new,
                converged=True,
                outer_iterations=outer,
                residual_norm=res,
                flops_total=flops_total,
            )
    return JacobiResult(
        x=decomp.assemble(x_locals),
        converged=False,
        outer_iterations=max_outer,
        residual_norm=res,
        flops_total=flops_total,
    )
