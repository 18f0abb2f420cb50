"""M-matrix theory and asynchronous-convergence checks.

The paper (§1) restricts attention to systems ``A x = b`` where ``A`` is an
M-matrix: ``A_ii > 0``, ``A_ij ≤ 0`` (i≠j), ``A`` nonsingular with
``A⁻¹ ≥ 0``.  Any weak regular splitting of an M-matrix yields an iterative
method that converges *asynchronously* — the theoretical licence for running
block-Jacobi with chaotic, delayed updates.  The practical sufficient
condition (§6) is ``ρ(|T|) < 1`` for the iteration matrix ``T``.

All dense paths here are meant for verification on small problems (tests,
ablations); nothing in the runtime hot path calls them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_z_matrix",
    "is_m_matrix",
    "is_weak_regular_splitting",
    "jacobi_iteration_matrix",
    "block_jacobi_iteration_matrix",
    "spectral_radius",
    "async_convergence_radius",
]


def _as_dense(A) -> np.ndarray:
    import scipy.sparse as sp
    if sp.issparse(A):
        return A.toarray()
    return np.asarray(A, dtype=float)


def is_z_matrix(A, tol: float = 1e-12) -> bool:
    """Z-matrix: non-positive off-diagonal entries."""
    D = _as_dense(A).copy()
    np.fill_diagonal(D, 0.0)
    return bool((D <= tol).all())


def is_m_matrix(A, tol: float = 1e-10) -> bool:
    """Nonsingular M-matrix test: Z-matrix with ``A⁻¹ ≥ 0``.

    Dense inverse — use on verification-sized problems only.
    """
    D = _as_dense(A)
    if D.shape[0] != D.shape[1]:
        return False
    if not is_z_matrix(D, tol):
        return False
    if (np.diag(D) <= 0).any():
        return False
    try:
        inv = np.linalg.inv(D)
    except np.linalg.LinAlgError:
        return False
    return bool((inv >= -tol).all())


def is_weak_regular_splitting(A, M, tol: float = 1e-10) -> bool:
    """Check that ``A = M - N`` is a weak regular splitting.

    Requires ``M`` nonsingular, ``M⁻¹ ≥ 0`` and ``M⁻¹ N ≥ 0``.
    """
    Ad, Md = _as_dense(A), _as_dense(M)
    if Ad.shape != Md.shape:
        raise ValueError("A and M must have identical shapes")
    try:
        Minv = np.linalg.inv(Md)
    except np.linalg.LinAlgError:
        return False
    if (Minv < -tol).any():
        return False
    T = Minv @ (Md - Ad)  # M^{-1} N
    return bool((T >= -tol).all())


def jacobi_iteration_matrix(A) -> np.ndarray:
    """Point-Jacobi iteration matrix ``T = I - D⁻¹ A`` (dense)."""
    Ad = _as_dense(A)
    d = np.diag(Ad)
    if (d == 0).any():
        raise ValueError("zero diagonal entry: Jacobi splitting undefined")
    return np.eye(Ad.shape[0]) - Ad / d[:, None]


def block_jacobi_iteration_matrix(A, blocks: list[np.ndarray]) -> np.ndarray:
    """Block-Jacobi iteration matrix ``T = I - M⁻¹ A`` for a partition.

    ``blocks`` is a list of index arrays covering ``range(n)`` disjointly
    (no overlap here: the overlapped operator is not a single square matrix;
    the overlapping variant is validated behaviourally in the solver tests).
    """
    Ad = _as_dense(A)
    nrows = Ad.shape[0]
    seen = np.zeros(nrows, dtype=bool)
    M = np.zeros_like(Ad)
    for idx in blocks:
        idx = np.asarray(idx)
        if seen[idx].any():
            raise ValueError("blocks overlap")
        seen[idx] = True
        M[np.ix_(idx, idx)] = Ad[np.ix_(idx, idx)]
    if not seen.all():
        raise ValueError("blocks do not cover the matrix")
    return np.eye(nrows) - np.linalg.solve(M, Ad)


def spectral_radius(T, iterations: int = 5000, tol: float = 1e-12, seed: int = 0) -> float:
    """Spectral radius estimate.

    Dense inputs up to ~1500 unknowns use exact eigenvalues.  Larger or
    sparse **nonnegative** inputs use a *shifted* power method on ``I + T``:
    iteration matrices of bipartite stencils (like the 5-point Laplacian)
    carry a ``±ρ`` eigenvalue pair, so the unshifted power method would
    oscillate; the shift makes ``1 + ρ`` strictly dominant.  General sparse
    inputs fall back to ARPACK.
    """
    import scipy.sparse as sp
    if not sp.issparse(T) and min(T.shape) <= 1500:
        return float(np.abs(np.linalg.eigvals(np.asarray(T, dtype=float))).max())

    Ts = T.tocsr() if sp.issparse(T) else sp.csr_matrix(np.asarray(T, dtype=float))
    if Ts.shape[0] != Ts.shape[1]:
        raise ValueError("spectral_radius needs a square matrix")
    if Ts.nnz == 0:
        return 0.0
    if (Ts.data < 0).any():
        # general matrix: largest-magnitude eigenvalue via ARPACK
        from scipy.sparse.linalg import eigs

        k = 1
        if Ts.shape[0] - 2 <= k:  # ARPACK needs k < n-1
            return float(np.abs(np.linalg.eigvals(Ts.toarray())).max())
        # explicit start vector: ARPACK's own is drawn from process-global
        # state, which would make the estimate depend on unrelated prior calls
        v0 = np.random.default_rng(seed).random(Ts.shape[0]) + 0.1
        vals = eigs(Ts, k=k, which="LM", return_eigenvectors=False,
                    maxiter=iterations, v0=v0)
        return float(np.abs(vals).max())

    rng = np.random.default_rng(seed)
    x = rng.random(Ts.shape[0]) + 0.1
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iterations):
        y = Ts @ x + x  # (I + T) x : Perron root of I+T is 1 + rho(T)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        y /= norm
        new_lam = float(y @ (Ts @ y) + 1.0)
        if abs(new_lam - lam) < tol * max(new_lam, 1.0):
            return max(new_lam - 1.0, 0.0)
        lam, x = new_lam, y
    return max(lam - 1.0, 0.0)


def async_convergence_radius(T) -> float:
    """``ρ(|T|)`` — the paper's sufficient condition for asynchronous
    convergence is that this is < 1 (§6)."""
    import scipy.sparse as sp
    if sp.issparse(T):
        return spectral_radius(abs(T))
    return spectral_radius(np.abs(_as_dense(T)))
