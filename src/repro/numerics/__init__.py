"""``repro.numerics`` — the scientific substrate of the reproduction.

Implements §6 of the paper and the theory it leans on:

* :mod:`~repro.numerics.csr` — :class:`~repro.numerics.csr.CsrMatrix`,
  the substrate's one sparse matrix type (numpy only; scipy loads through
  its ``to_scipy()`` where a scipy algorithm runs);
* :mod:`~repro.numerics.poisson` — 2-D Poisson discretization on a uniform
  Cartesian grid with Dirichlet boundary conditions (5-point stencil →
  ``A x = b`` with ``A`` a 5-diagonal M-matrix of size ``n² × n²``);
* :mod:`~repro.numerics.matrix` — M-matrix and weak-regular-splitting
  checks and spectral radii (the asynchronous convergence
  condition is ``ρ(|T|) < 1``);
* :mod:`~repro.numerics.cg` — a from-scratch sparse Conjugate Gradient (the
  paper's inner solver), with iteration/flop accounting used by the
  simulator's compute-time model;
* :mod:`~repro.numerics.splitting` — block decomposition with component
  **overlapping**; exchanged data per neighbour is one grid line
  (``n`` components) regardless of the overlap, as the paper requires;
* :mod:`~repro.numerics.jacobi` — the sequential reference solver:
  synchronous block-Jacobi, ground truth for the runtime tests.
"""

from repro.numerics.poisson import (
    Poisson2D,
    five_point_matrix,
    poisson_matrix,
    poisson_rhs,
)
from repro.numerics.matrix import (
    is_m_matrix,
    is_weak_regular_splitting,
    spectral_radius,
    async_convergence_radius,
)
from repro.numerics.cg import (
    conjugate_gradient,
    CgResult,
    CgOperator,
    block_operator,
)
from repro.numerics.csr import CsrMatrix
from repro.numerics.splitting import (
    BlockDecomposition,
    BlockInfo,
    DecompositionCache,
    DECOMPOSITION_CACHE,
    shared_decomposition,
)
from repro.numerics.jacobi import (
    block_jacobi,
    JacobiResult,
)
from repro.numerics.residual import update_distance
from repro.numerics.theory import AsyncCertificate, async_certificate

__all__ = [
    "Poisson2D",
    "five_point_matrix",
    "poisson_matrix",
    "poisson_rhs",
    "is_m_matrix",
    "is_weak_regular_splitting",
    "spectral_radius",
    "async_convergence_radius",
    "conjugate_gradient",
    "CgResult",
    "CgOperator",
    "block_operator",
    "CsrMatrix",
    "BlockDecomposition",
    "BlockInfo",
    "DecompositionCache",
    "DECOMPOSITION_CACHE",
    "shared_decomposition",
    "block_jacobi",
    "JacobiResult",
    "update_distance",
    "AsyncCertificate",
    "async_certificate",
]
