"""Reference oracle: chaotic (asynchronous) block-Jacobi relaxation, moved
verbatim out of ``repro/numerics/jacobi.py`` — no experiment runs it.

At each step a scheduled subset of blocks update, reading neighbour values
that may be *stale by up to ``max_delay`` sweeps*.  Under the M-matrix /
weak-regular-splitting hypotheses this still converges to the same fixed
point as :func:`repro.numerics.block_jacobi` — the property JaceP2P's whole
design rests on.  ``tests/test_numerics_splitting.py`` and
``tests/test_theory.py`` hold the certificates to it.
"""

from __future__ import annotations

import numpy as np

from repro.numerics.jacobi import JacobiResult, _solve_blocks_once
from repro.numerics.splitting import BlockDecomposition
from repro.util.rng import RngTree

__all__ = ["ChaoticDivergence", "chaotic_block_jacobi"]


class ChaoticDivergence(RuntimeError):
    """The relaxation spent its step budget without converging."""


def chaotic_block_jacobi(
    decomp: BlockDecomposition,
    rng: RngTree,
    tol: float = 1e-8,
    max_steps: int = 100_000,
    activation_probability: float = 0.6,
    max_delay: int = 3,
    raise_on_fail: bool = False,
) -> JacobiResult:
    """Asynchronous (chaotic) relaxation with bounded random delays.

    At each global step every block independently updates with probability
    ``activation_probability`` (but never starves: a block skipped
    ``max_delay`` consecutive steps is forced to run — the standard
    "eventually every component updates" hypothesis).  Each update reads
    neighbour values from a randomly chosen *past* snapshot at most
    ``max_delay`` steps old (bounded staleness).
    """
    if not 0 < activation_probability <= 1:
        raise ValueError("activation_probability must be in (0, 1]")
    if max_delay < 0:
        raise ValueError("max_delay must be >= 0")

    x_locals = [np.zeros(blk.n_ext) for blk in decomp.blocks]
    b_norm = max(float(np.linalg.norm(decomp.b)), 1e-300)
    snapshots: list[np.ndarray] = [decomp.assemble(x_locals)]
    skipped = [0] * decomp.nblocks
    res, flops_total = float("inf"), 0.0
    act_rng = rng.child("activate")
    delay_rng = rng.child("delay")

    for step in range(1, max_steps + 1):
        which = []
        for k in range(decomp.nblocks):
            if act_rng.uniform() < activation_probability or skipped[k] >= max_delay:
                which.append(k)
                skipped[k] = 0
            else:
                skipped[k] += 1
        for k in which:
            # each active block reads its own stale snapshot
            age = delay_rng.integers(0, min(max_delay, len(snapshots) - 1) + 1)
            snap = snapshots[-1 - age]
            flops_total += _solve_blocks_once(decomp, x_locals, [k], snap)
        x_now = decomp.assemble(x_locals)
        snapshots.append(x_now)
        if len(snapshots) > max_delay + 1:
            snapshots.pop(0)
        res = float(np.linalg.norm(decomp.b - decomp.A @ x_now)) / b_norm
        if res <= tol:
            return JacobiResult(
                x=x_now,
                converged=True,
                outer_iterations=step,
                residual_norm=res,
                flops_total=flops_total,
            )
    if raise_on_fail:
        raise ChaoticDivergence(f"chaotic relaxation: no convergence in {max_steps} steps")
    return JacobiResult(
        x=decomp.assemble(x_locals),
        converged=False,
        outer_iterations=max_steps,
        residual_norm=res,
        flops_total=flops_total,
    )
