"""Sparse Conjugate Gradient — the paper's inner solver (§6), from scratch.

Plain CG (optionally Jacobi-preconditioned) on a symmetric positive-definite
sparse matrix.  Returns a :class:`CgResult` carrying the iteration count and
an **estimated flop count**, which is what the simulator charges as compute
time for a daemon's local solve — so a larger local block really does take
proportionally longer simulated time, reproducing the paper's ratio (4)
(compute-per-iteration / communication-per-iteration) mechanics.

Two execution paths produce **bitwise-identical** results:

* :func:`conjugate_gradient` — the general allocating loop (any matrix,
  no cached state; the reference :meth:`CgOperator.solve` is tested against);
* :class:`CgOperator` — per-matrix cached state (a prebound matvec kernel,
  Jacobi diagonal, preallocated work vectors) whose
  :meth:`CgOperator.solve` runs the same arithmetic without per-call
  allocations.  Identical floating point operations in identical order ⇒
  identical iterates, iteration counts, residuals and flop charges —
  simulated time cannot change.

The operator's one kernel is picked by :func:`matvec_kernel` on its first
multiply.  A canonical CSR matrix with few diagonals — every Poisson or
heat strip is exactly 5-diagonal — is multiplied by scipy's DIA kernel on
a diagonal-storage copy with ascending offsets: one vectorisable
``y[i] += d[i] * x[i + k]`` loop per diagonal instead of CSR's serial
per-row add chain, about 1.5× faster on the Figure 7 strips.  For finite
``x`` it gives exactly CSR's bits: ``y`` starts at +0.0, each element adds
its terms in CSR's sorted-column order, and a padding slot adds ±0.0,
which leaves any such sum unchanged.  (An infinite or NaN ``x[j]`` meeting
a padding slot gives NaN; CG's iterates are finite unless the solve has
already overflowed.)  Any other matrix keeps the CSR kernel.

:meth:`CgOperator.solve_direct` additionally offers an opt-in cached
LU-factorization path (``scipy.sparse.linalg.splu`` under SuperLU's
symmetric ordering) for small blocks.  It returns the same :class:`CgResult`
record with an honest direct-solve flop estimate, but it is a *different
numerical method* (different round-off, iteration count 1), so it is never
enabled by default and is excluded from bitwise comparisons.
"""

from __future__ import annotations

import sys
from functools import partial
# IEEE 754 requires correctly-rounded sqrt, so math.sqrt and np.sqrt agree
# bitwise on binary64 — and the math version skips the ufunc dispatch that
# dominates scalar-sqrt cost in the per-iteration residual check
from math import sqrt as _sqrt
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import ConvergenceError

# scipy's C matvec kernels: y += A @ x without allocating
from scipy.sparse._sparsetools import (
    csr_has_canonical_format as _csr_has_canonical_format,
    csr_matvec as _csr_matvec,
    dia_matvec as _dia_matvec,
)

__all__ = ["CgResult", "conjugate_gradient", "cg_flops_estimate",
           "CgOperator", "block_operator", "csr_matvec_into",
           "matvec_kernel", "direct_flops_estimate"]


@dataclass
class CgResult:
    """Outcome of one CG solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    flops: float
    residual_history: list[float] = field(default_factory=list)


def cg_flops_estimate(nnz: int, nrows: int, iterations: int) -> float:
    """Standard per-iteration cost: one matvec (2·nnz) + 5 vector ops (10·n)."""
    return float(iterations) * (2.0 * nnz + 10.0 * nrows) + 2.0 * nnz


def direct_flops_estimate(nnz_lu: int, nrows: int) -> float:
    """Forward+backward triangular solve: ~2 flops per stored LU entry."""
    return 2.0 * float(nnz_lu) + 2.0 * float(nrows)


def csr_matvec_into(A: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A @ x`` without allocating, bitwise-identical to ``A @ x``.

    scipy's ``@`` allocates a zero vector and accumulates with the same C
    kernel; calling the kernel on a zeroed caller buffer performs the exact
    same floating-point operations.
    """
    out[:] = 0.0
    _csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out)
    return out


def matvec_kernel(A: sp.csr_matrix):
    """A prebound C kernel ``kernel(x, y)`` that adds ``A @ x`` into ``y``.

    Called on a zeroed ``y`` it leaves there exactly the bits ``A @ x``
    gives for finite ``x`` (see the module docstring).  The kernel is
    scipy's ``dia_matvec`` on a diagonal-storage copy with ascending
    offsets when ``A`` is canonical CSR (sorted, duplicate-free column
    indices) and the copy stores at most 1.5×nnz values — no more bytes
    than the CSR values and 32-bit indices it stands in for, which admits
    banded matrices and rules out dense ones.  Otherwise it is
    ``csr_matvec`` on ``A``'s own arrays.  ``A`` is only read, so a
    frozen (``writeable=False``) matrix is fine.
    """
    n_row, n_col = A.shape
    indptr, indices = A.indptr, A.indices
    if _csr_has_canonical_format(n_row, indptr, indices):
        rows = np.repeat(np.arange(n_row, dtype=indices.dtype), np.diff(indptr))
        offsets, diagonal = np.unique(indices - rows, return_inverse=True)
        if 2 * offsets.size * n_col <= 3 * A.nnz:
            data = np.zeros((offsets.size, n_col), dtype=A.dtype)
            data[diagonal, indices] = A.data
            data.flags.writeable = False  # shared, like the block it copies
            return partial(_dia_matvec, n_row, n_col, offsets.size, n_col,
                           offsets, data)
    return partial(_csr_matvec, n_row, n_col, indptr, indices, A.data)


def conjugate_gradient(
    A: sp.spmatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    jacobi_precondition: bool = False,
    raise_on_fail: bool = False,
    keep_history: bool = False,
) -> CgResult:
    """Solve ``A x = b`` for SPD sparse ``A``.

    Convergence test: ``||r|| <= tol * ||b||`` (or absolute when b = 0).

    Parameters
    ----------
    x0:
        Warm start — the asynchronous outer iteration passes the previous
        local solution, which is why inner solves get cheap near the fixed
        point.
    jacobi_precondition:
        Divide by the diagonal — cheap and preserves the M-matrix structure.
    raise_on_fail:
        Raise :class:`~repro.errors.ConvergenceError` instead of returning a
        non-converged result.
    """
    A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
    nrows = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    b = np.asarray(b, dtype=float)
    if b.shape != (nrows,):
        raise ValueError(f"b has shape {b.shape}, expected ({nrows},)")
    if max_iter is None:
        max_iter = max(10 * nrows, 100)

    x = np.zeros(nrows) if x0 is None else np.array(x0, dtype=float, copy=True)
    if x.shape != (nrows,):
        raise ValueError("x0 shape mismatch")

    b_norm = float(np.linalg.norm(b))
    stop = tol * b_norm if b_norm > 0 else tol

    if jacobi_precondition:
        d = A.diagonal()
        if (d <= 0).any():
            raise ValueError("Jacobi preconditioner needs a positive diagonal")
        inv_d = 1.0 / d
        apply_m = lambda r: inv_d * r  # noqa: E731
    else:
        apply_m = lambda r: r  # noqa: E731

    r = b - A @ x
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r))
    history = [res] if keep_history else []

    it = 0
    while res > stop and it < max_iter:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            # Not SPD along this direction: bail out rather than diverge.
            if raise_on_fail:
                raise ConvergenceError("CG breakdown: non-positive curvature")
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        if keep_history:
            history.append(res)
        z = apply_m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz if rz > 0 else 0.0
        p = z + beta * p
        rz = rz_new
        it += 1

    converged = res <= stop
    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"CG did not converge in {max_iter} iterations (residual {res:.3e})"
        )
    return CgResult(
        x=x,
        converged=converged,
        iterations=it,
        residual_norm=res,
        flops=cg_flops_estimate(A.nnz, nrows, it),
        residual_history=history,
    )


class CgOperator:
    """Per-matrix cached solver state.

    Holds the matrix, its matvec kernel (chosen by :func:`matvec_kernel`
    on the first multiply, so an operator that never multiplies — a
    cohort member solving on another operator — stores no DIA copy), the
    (lazily computed) Jacobi diagonal, a lazily cached LU factorization,
    and preallocated work vectors, so repeated solves against the same
    matrix allocate only their output ``x``.

    The matrix is **symmetric by contract**: the class solves by CG, which
    requires it, and every block it serves is a strip of a symmetric
    operator.  :meth:`factorization` relies on that to pick a symmetric
    fill-reducing ordering, and refuses a matrix whose sparsity pattern is
    not symmetric.

    The solve arithmetic replicates :func:`conjugate_gradient` operation by
    operation (same kernels, same order), so results are bitwise identical
    — callers may switch between the two freely without perturbing
    simulated time.  Work buffers are scratch only: no state survives a
    solve, so one operator may serve many tasks sequentially.
    """

    def __init__(self, A: sp.spmatrix):
        A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        self.A = A
        self.n = A.shape[0]
        self.nnz = A.nnz
        n = self.n
        self._r = np.empty(n)
        self._p = np.empty(n)
        self._Ap = np.empty(n)
        self._tmp = np.empty(n)
        self._z: np.ndarray | None = None  # allocated on first preconditioned solve
        self._inv_diag: np.ndarray | None = None
        self._lu = None
        self._lu_nnz = 0
        self._kernel = None  # built by :attr:`kernel` on the first multiply
        #: recycled solution buffers for ``x0 is None`` solves (see
        #: :meth:`_fresh_x`); bounded so escaped buffers cannot pile up
        self._x_pool: list[np.ndarray] = []

    # -- cached pieces -------------------------------------------------------

    @property
    def kernel(self):
        """The prebound ``kernel(x, y)``: ``y += A @ x`` (see
        :func:`matvec_kernel`).  :meth:`solve` runs one multiply per
        iteration on a small block, where re-fetching ``A.indptr`` etc.
        through a wrapper costs as much as the multiply itself."""
        if self._kernel is None:
            self._kernel = matvec_kernel(self.A)
        return self._kernel

    @property
    def inv_diag(self) -> np.ndarray:
        if self._inv_diag is None:
            d = self.A.diagonal()
            if (d <= 0).any():
                raise ValueError("Jacobi preconditioner needs a positive diagonal")
            self._inv_diag = 1.0 / d
        return self._inv_diag

    def factorization(self):
        """The cached ``splu`` factorization (built on first use).

        Columns are ordered by minimum degree on the pattern of ``A + Aᵀ``
        (``MMD_AT_PLUS_A``), SuperLU's ordering for symmetric matrices.
        Its default, COLAMD, orders the pattern of ``AᵀA`` and is meant for
        unsymmetric ones; on the Poisson strips factored here it stores
        about half again as many factor entries, and every triangular
        solve streams all of them.
        """
        if self._lu is None:
            from scipy.sparse.linalg import splu

            csc = self.A.tocsc()
            # CSC of A is CSR of Aᵀ, so a symmetric pattern means A's
            # canonical (sorted) CSR index arrays equal the CSC ones
            csr = csc.tocsr()
            if not (np.array_equal(csr.indptr, csc.indptr)
                    and np.array_equal(csr.indices, csc.indices)):
                raise ValueError(
                    "CgOperator.factorization() needs a matrix with a "
                    "symmetric sparsity pattern (its ordering assumes one)")
            self._lu = splu(csc, permc_spec="MMD_AT_PLUS_A")
            self._lu_nnz = int(self._lu.L.nnz + self._lu.U.nnz)
        return self._lu

    def matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = A @ x`` into a caller buffer (bitwise-identical)."""
        out.fill(0.0)
        self.kernel(x, out)
        return out

    _X_POOL_MAX = 4

    def _fresh_x(self) -> np.ndarray:
        """A zeroed solution buffer, recycled across solves when safe.

        Callers retain the returned ``x`` (it becomes ``CgResult.x``, the
        task's live state, possibly the base of in-flight zero-copy
        payload views), so a slot is reused only when *nothing* outside
        the pool still references it — checked by refcount, which makes
        recycling invisible: a free slot refilled with ``fill(0.0)`` is
        bit-for-bit the ``np.zeros`` it replaces.
        """
        pool = self._x_pool
        for slot in pool:
            # refs: pool list + loop binding + getrefcount argument
            if sys.getrefcount(slot) == 3 and slot.flags.writeable:
                slot.fill(0.0)
                return slot
        x = np.zeros(self.n)
        if len(pool) < self._X_POOL_MAX:
            pool.append(x)
        return x

    # -- solves --------------------------------------------------------------

    def solve(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iter: int | None = None,
        jacobi_precondition: bool = False,
        raise_on_fail: bool = False,
        keep_history: bool = False,
    ) -> CgResult:
        """CG solve, bitwise-identical to :func:`conjugate_gradient`."""
        n = self.n
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},)")
        if max_iter is None:
            max_iter = max(10 * n, 100)

        x = self._fresh_x() if x0 is None else np.array(x0, dtype=float, copy=True)
        if x.shape != (n,):
            raise ValueError("x0 shape mismatch")

        b_norm = _sqrt(b.dot(b))
        stop = tol * b_norm if b_norm > 0 else tol

        r, p, Ap, tmp = self._r, self._p, self._Ap, self._tmp
        # inlined matvec (same zero fill, same kernel) — the method call is
        # measurable at swarm scale, where blocks are ~100 rows and solves
        # number 10^5
        kernel = self.kernel
        if x0 is None:
            # r = b - A @ 0: elementwise b[i] - 0.0 == b[i] bitwise.
            np.copyto(r, b)
        else:
            Ap.fill(0.0)
            kernel(x, Ap)
            np.subtract(b, Ap, out=r)

        precond = jacobi_precondition
        if precond:
            inv_d = self.inv_diag
            if self._z is None:
                self._z = np.empty(n)
            z = self._z
            np.multiply(inv_d, r, out=z)
            rz = float(r.dot(z))
            res = _sqrt(r.dot(r))
        else:
            z = r  # the identity preconditioner aliases z to r
            rz = float(r.dot(r))
            res = _sqrt(rz)
        np.copyto(p, z)
        history = [res] if keep_history else []

        it = 0
        while res > stop and it < max_iter:
            Ap.fill(0.0)
            kernel(p, Ap)
            pAp = float(p.dot(Ap))
            if pAp <= 0.0:
                if raise_on_fail:
                    raise ConvergenceError("CG breakdown: non-positive curvature")
                break
            alpha = rz / pAp
            # x += alpha * p ; r -= alpha * Ap  (via the scratch buffer)
            np.multiply(p, alpha, out=tmp)
            np.add(x, tmp, out=x)
            np.multiply(Ap, alpha, out=tmp)
            np.subtract(r, tmp, out=r)
            if precond:
                res = _sqrt(r.dot(r))
                np.multiply(inv_d, r, out=z)
                rz_new = float(r.dot(z))
            else:
                rz_new = float(r.dot(r))
                res = _sqrt(rz_new)
            if keep_history:
                history.append(res)
            beta = rz_new / rz if rz > 0 else 0.0
            # p = z + beta * p: scale-then-add reads z (== r unpreconditioned)
            np.multiply(p, beta, out=p)
            np.add(p, z, out=p)
            rz = rz_new
            it += 1

        converged = res <= stop
        if not converged and raise_on_fail:
            raise ConvergenceError(
                f"CG did not converge in {max_iter} iterations (residual {res:.3e})"
            )
        return CgResult(
            x=x,
            converged=converged,
            iterations=it,
            residual_norm=res,
            flops=cg_flops_estimate(self.nnz, n, it),
            residual_history=history,
        )

    def solve_direct(self, b: np.ndarray, tol: float = 1e-10) -> CgResult:
        """Solve via the cached LU factorization (opt-in, small blocks).

        A different numerical method than CG: one triangular solve pair,
        different round-off.  The returned :class:`CgResult` reports
        ``iterations=1`` and an honest direct-solve flop estimate, so the
        simulator's compute-time model stays meaningful — but enabling this
        path *does* change iteration counts and simulated time relative to
        CG, which is why it is never a default.
        """
        x = self.factorization().solve(b)
        # honest convergence diagnostics: one extra (uncharged) matvec
        self.matvec(x, self._Ap)
        np.subtract(b, self._Ap, out=self._r)
        res = _sqrt(self._r.dot(self._r))
        b_norm = _sqrt(b.dot(b))
        stop = tol * b_norm if b_norm > 0 else tol
        return CgResult(
            x=x,
            converged=res <= stop,
            iterations=1,
            residual_norm=res,
            flops=direct_flops_estimate(self._lu_nnz, self.n),
            residual_history=[],
        )


def block_operator(blk) -> CgOperator:
    """The cached :class:`CgOperator` for a decomposition block.

    Stored in the block's ``op_cache`` slot, so every task (and every churn
    replacement) mapped onto the same shared block reuses one operator.
    """
    op = blk.op_cache.get("cg")
    if op is None:
        op = CgOperator(blk.A_local)
        blk.op_cache["cg"] = op
    return op
