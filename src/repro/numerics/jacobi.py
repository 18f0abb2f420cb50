"""Sequential reference solver for the block-Jacobi multisplitting.

:func:`block_jacobi` runs the *same* mathematics as the distributed runtime,
without any network, and serves as ground truth: the synchronous outer
iteration, where every block solves with the neighbours' values from the
previous sweep.  Its chaotic (asynchronous) counterpart is a test oracle,
``tests/oracles/chaotic_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    inner_iterations_total: int = 0
    flops_total: float = 0.0
    residual_history: list[float] = field(default_factory=list)


def _solve_blocks_once(
    decomp: BlockDecomposition,
    x_locals: list[np.ndarray],
    which: list[int],
    read_global: np.ndarray,
) -> tuple[int, float]:
    """In-place sub-iteration for the chosen blocks; returns (inner_its, flops)."""
    inner = 0
    flops = 0.0
    for k in which:
        blk = decomp.blocks[k]
        ext_vals = read_global[blk.ext_cols] if blk.ext_cols.size else np.empty(0)
        rhs = decomp.local_rhs(k, ext_vals)
        result = conjugate_gradient(
            blk.A_local, rhs, x0=x_locals[k], tol=INNER_TOL
        )
        x_locals[k] = result.x
        inner += result.iterations
        flops += result.flops
    return inner, flops


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
    history: list[float] = []
    inner_total, flops_total = 0, 0.0

    for outer in range(1, max_outer + 1):
        x_global = decomp.assemble(x_locals)
        inner, flops = _solve_blocks_once(
            decomp, x_locals, list(range(decomp.nblocks)), x_global
        )
        inner_total += inner
        flops_total += flops
        x_new = decomp.assemble(x_locals)
        res = float(np.linalg.norm(decomp.b - decomp.A @ x_new)) / b_norm
        history.append(res)
        if res <= tol:
            return JacobiResult(
                x=x_new,
                converged=True,
                outer_iterations=outer,
                residual_norm=res,
                inner_iterations_total=inner_total,
                flops_total=flops_total,
                residual_history=history,
            )
    return JacobiResult(
        x=decomp.assemble(x_locals),
        converged=False,
        outer_iterations=max_outer,
        residual_norm=history[-1] if history else float("inf"),
        inner_iterations_total=inner_total,
        flops_total=flops_total,
        residual_history=history,
    )
