"""Asynchronous-convergence certificates (the §1/§6 theory, executable).

The paper's mathematical licence: for ``A x = b`` with ``A`` an M-matrix,
any weak regular splitting yields an iteration that converges
*asynchronously*; practically, block-Jacobi converges chaotically when
``ρ(|T|) < 1`` for the iteration matrix ``T`` (§6: "the block-Jacobi method
has the advantage of being solvable using the asynchronous iteration model
if the spectral radius of the absolute value of the iteration matrix is
less than 1").

:func:`async_certificate` computes that certificate for a concrete
:class:`~repro.numerics.splitting.BlockDecomposition`; the tests pair it
with the chaotic reference solver to show both directions — certified
systems converge under chaos, and a non-certified counterexample diverges.
Dense linear algebra: verification-sized problems only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numerics.matrix import (
    is_m_matrix,
    is_weak_regular_splitting,
    spectral_radius,
)
from repro.numerics.splitting import BlockDecomposition

__all__ = ["AsyncCertificate", "async_certificate", "block_iteration_matrix"]


def block_iteration_matrix(decomp: BlockDecomposition) -> np.ndarray:
    """The (non-overlapping) block-Jacobi iteration matrix ``T = I − M⁻¹A``.

    ``M`` is the block-diagonal of ``A`` over the decomposition's *owned*
    ranges.  Overlapping decompositions do not have a single square
    iteration matrix (components are computed twice); for those the owned
    ranges still induce a valid splitting whose certificate is a
    conservative proxy, which is what this returns.
    """
    A = decomp.A.toarray()
    size = A.shape[0]
    M = np.zeros_like(A)
    for blk in decomp.blocks:
        sl = slice(blk.own_start, blk.own_end)
        M[sl, sl] = A[sl, sl]
    return np.eye(size) - np.linalg.solve(M, A)


@dataclass(frozen=True)
class AsyncCertificate:
    """The §6 convergence certificate for one decomposition."""

    rho_abs: float           #: ρ(|T|) — chaotic convergence iff < 1
    rho: float               #: ρ(T) — synchronous convergence iff < 1
    m_matrix: bool           #: is A an (verified) M-matrix?
    weak_regular: bool       #: is A = M − N a weak regular splitting?

    @property
    def async_convergent(self) -> bool:
        return self.rho_abs < 1.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "ASYNC-SAFE" if self.async_convergent else "NOT CERTIFIED"
        return (
            f"{verdict}: rho(|T|)={self.rho_abs:.4f}, rho(T)={self.rho:.4f}, "
            f"M-matrix={self.m_matrix}, weak-regular={self.weak_regular}"
        )


def async_certificate(decomp: BlockDecomposition) -> AsyncCertificate:
    """Compute the full certificate (dense; verification sizes only)."""
    A = decomp.A.toarray()
    size = A.shape[0]
    if size > 2500:
        raise ValueError(
            f"certificate is a dense computation; {size} unknowns is too "
            "large (use it on verification-sized problems)"
        )
    T = block_iteration_matrix(decomp)
    M = np.zeros_like(A)
    for blk in decomp.blocks:
        sl = slice(blk.own_start, blk.own_end)
        M[sl, sl] = A[sl, sl]
    return AsyncCertificate(
        rho_abs=spectral_radius(np.abs(T)),
        rho=spectral_radius(T),
        m_matrix=is_m_matrix(A),
        weak_regular=is_weak_regular_splitting(A, M),
    )
