"""Sparse Conjugate Gradient — the paper's inner solver (§6), from scratch.

Plain CG on a symmetric positive-definite sparse matrix.  Returns a
:class:`CgResult` carrying the iteration count and an **estimated flop
count**, which is what the simulator charges as compute time for a
daemon's local solve — so a larger local block really does take
proportionally longer simulated time, reproducing the paper's ratio (4)
(compute-per-iteration / communication-per-iteration) mechanics.

:func:`conjugate_gradient` is the general allocating loop (any matrix).
:class:`CgOperator` caches per-matrix state; its :meth:`CgOperator.solve`
hands any matrix but a Poisson strip — none that an experiment reaches —
to :func:`conjugate_gradient`, bit for bit.

**Spectral CG.**  A Poisson strip is exactly ``A = c·(T_m ⊗ I_n + I_m ⊗
T_n)`` with ``T_k = tridiag(-1, 2, -1)``: ``m`` grid lines of ``n`` points
(:func:`strip_shape`).  The orthonormal DST-I matrix ``Q_k``
(:func:`dst_matrix`; symmetric, its own inverse) diagonalises ``T_k``
(Lynch, Rice & Thomas, 1964), and CG is invariant under an orthonormal
change of basis.  So :meth:`CgOperator.solve` maps ``b̂ = Q_m·B·Q_n``
(``B`` is ``b`` as ``m×n``; two GEMMs), runs the unchanged loop — stop
rule ``tol·‖b‖``, ``max_iter``, ``pAp ≤ 0`` guard, ``rz``/``res``/``beta``
recurrences — with ``Ap = λ ⊙ p``, and returns ``x = Q_m·(Λ⁻¹(b̂ −
r̂))·Q_n``.  It agrees with :func:`conjugate_gradient` up to round-off:
on the ledger's solves the iteration counts are equal but for a few
±1 (a residual landing within round-off of the stop), no ``converged``
flag differs and the relative ``Δx`` stays below 1e-10.  The flops
charged stay :func:`cg_flops_estimate` of the sparse matrix: the
simulator prices the method the paper ran, not the emulator's work.

:meth:`CgOperator.matvec` runs one kernel, picked by :func:`matvec_kernel`
on the first multiply: scipy's DIA kernel on a diagonal-storage copy with
ascending offsets for a canonical matrix with few diagonals (every Poisson
or heat strip is 5-diagonal), else the matrix's own
:meth:`~repro.numerics.csr.CsrMatrix.matvec_into`.  For finite ``x`` DIA
gives exactly CSR's bits: ``y`` starts at +0.0, each element adds its
terms in CSR's sorted-column order, and a padding slot adds ±0.0.

Matrices are :class:`~repro.numerics.csr.CsrMatrix` values; scipy loads
only with the DIA kernel, the direct solve's LAPACK factor and
:func:`conjugate_gradient` (all through
:meth:`~repro.numerics.csr.CsrMatrix.to_scipy`), none of which a CG run on
Poisson strips reaches.

:meth:`CgOperator.solve_direct` is the opt-in exact solve for the one
matrix family the direct inner solver meets: a strip of the 5-point Poisson
operator.  It diagonalises only the short axis, so

1. ``Y = Q_m·B`` maps the strip's short axis to sine modes (one GEMM),
2. the ``m`` decoupled SPD tridiagonals ``c·(μ_k I + T_n) y_k = Y_k`` are
   one LAPACK ``pttrs`` call over a cached ``pttrf`` factor of their
   concatenation (``2·m·n`` stored values), and
3. ``X = Q_m·Y`` maps back (one more GEMM).

The simulated cost of a solve prices the method, not the host's kernel:
:func:`direct_flops_estimate` charges an FFT-based DST-I solve,
``2·n·(5/2)·L·log2(L) + 8·m·n`` flops with ``L = 2(m+1)`` — two
transforms of ``n`` columns at ``(5/2)·L·log2(L)`` each, plus the
tridiagonal solves.  A direct solve is a *different numerical method* than
CG (different round-off, iteration count 1), so it is never enabled by
default and is excluded from bitwise comparisons.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial
from math import log2 as _log2
# IEEE 754 requires correctly-rounded sqrt, so math.sqrt and np.sqrt agree
# bitwise on binary64 — and the math version skips the ufunc dispatch that
# dominates scalar-sqrt cost in the per-iteration residual check
from math import sqrt as _sqrt
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.numerics.csr import CsrMatrix
from repro.numerics.poisson import five_point_matrix

__all__ = ["CgResult", "conjugate_gradient", "cg_flops_estimate",
           "CgOperator", "block_operator", "matvec_kernel",
           "direct_flops_estimate", "StripFactor", "strip_factor",
           "strip_shape", "dst_matrix"]


@dataclass
class CgResult:
    """Outcome of one CG solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    flops: float


def cg_flops_estimate(nnz: int, nrows: int, iterations: int) -> float:
    """Standard per-iteration cost: one matvec (2·nnz) + 5 vector ops (10·n)."""
    return float(iterations) * (2.0 * nnz + 10.0 * nrows) + 2.0 * nnz


def direct_flops_estimate(m: int, n: int) -> float:
    """One FFT-based DST-I solve of a Poisson strip of ``m`` grid lines of
    ``n`` points: ``2·n·(5/2)·L·log2(L) + 8·m·n`` with ``L = 2(m+1)`` (see
    the module docstring)."""
    L = 2.0 * (m + 1)
    return 2.0 * n * 2.5 * L * _log2(L) + 8.0 * m * n


def matvec_kernel(A: CsrMatrix):
    """A prebound kernel ``kernel(x, y)`` that leaves ``A @ x`` in a zeroed
    ``y``: exactly the bits ``A @ x`` gives, for finite ``x`` (see the
    module docstring).

    The kernel is scipy's ``dia_matvec``, which adds ``A @ x`` into ``y``,
    on a diagonal-storage copy with ascending offsets when ``A`` is
    canonical (sorted, duplicate-free column indices) and the copy stores
    at most 1.5×nnz values — no more bytes than the CSR values and 32-bit
    indices it stands in for, which admits banded matrices and rules out
    dense ones.  Otherwise it is ``A``'s own
    :meth:`~repro.numerics.csr.CsrMatrix.matvec_into`, which overwrites
    ``y``.  ``A`` is only read.
    """
    A = CsrMatrix.of(A)
    n_row, n_col = A.shape
    indices = A.indices
    if A.to_scipy().has_canonical_format:
        rows = np.repeat(np.arange(n_row, dtype=indices.dtype),
                         np.diff(A.indptr))
        offsets, diagonal = np.unique(indices - rows, return_inverse=True)
        if 2 * offsets.size * n_col <= 3 * A.nnz:
            from scipy.sparse._sparsetools import dia_matvec

            data = np.zeros((offsets.size, n_col))
            data[diagonal, indices] = A.data
            data.flags.writeable = False  # shared, like the block it copies
            return partial(dia_matvec, n_row, n_col, offsets.size, n_col,
                           offsets, data)
    return A.matvec_into


class StripFactor(NamedTuple):
    """The cached fast-diagonalization factor of one Poisson strip."""

    m: int              #: grid lines in the strip
    n: int              #: points per grid line
    Q: np.ndarray       #: m×m orthonormal DST-I matrix, symmetric, Q·Q = I
    d: np.ndarray       #: ``pttrf`` factor of the m concatenated tridiagonals
    e: np.ndarray
    pttrs: Callable     #: LAPACK's ``dpttrs``
    flops: float        #: :func:`direct_flops_estimate` of one solve


def strip_shape(A: CsrMatrix) -> tuple[int, int, float] | None:
    """``(m, n, c)`` when ``A`` is exactly ``c·(T_m ⊗ I_n + I_m ⊗ T_n)``,
    the matrix :func:`~repro.numerics.poisson.five_point_matrix` builds,
    else ``None``.  A matrix stored unsorted, with duplicate entries or
    with explicit zeros is read through its canonical form."""
    A = CsrMatrix.of(A)
    return _read_strip(A) or _read_strip(_canonical(A))


def _read_strip(A: CsrMatrix) -> tuple[int, int, float] | None:
    """:func:`strip_shape` of a matrix as it is stored."""
    size = A.shape[0]
    # row 0 couples to its right neighbour and to the point below it, at
    # column n; one line (or one-point lines) leaves only the first
    row0 = A.indices[A.indptr[0]:A.indptr[1]]
    n = int(row0[2]) if row0.size == 3 else size
    m = size // n if n else 0
    c = float(A.data[0]) / 4.0 if A.nnz else 0.0
    if m * n != size or A.shape[1] != size or not c > 0.0:
        return None
    want = five_point_matrix(m, n, c)
    same = (np.array_equal(A.indptr, want.indptr)
            and np.array_equal(A.indices, want.indices)
            and np.array_equal(A.data, want.data))
    return (m, n, c) if same else None


def _canonical(A: CsrMatrix) -> CsrMatrix:
    """``A`` with each row sorted by column, duplicates summed and zeros
    dropped."""
    n_row = A.shape[0]
    rows = np.repeat(np.arange(n_row), np.diff(A.indptr))
    order = np.lexsort((A.indices, rows))
    rows, cols = rows[order], A.indices[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    first = np.flatnonzero(first)
    data = np.add.reduceat(A.data[order], first) if first.size else A.data
    keep = data != 0.0
    rows, cols, data = rows[first][keep], cols[first][keep], data[keep]
    indptr = np.zeros(n_row + 1, dtype=A.indptr.dtype)
    np.cumsum(np.bincount(rows, minlength=n_row), out=indptr[1:])
    return CsrMatrix(data, cols, indptr, A.shape)


@lru_cache(maxsize=None)
def dst_matrix(m: int) -> np.ndarray:
    """The ``m×m`` orthonormal DST-I matrix (symmetric, ``Q·Q = I``; it
    diagonalises ``T_m``), cached per size and read-only."""
    k = np.arange(1, m + 1)
    # (j·k) is an exact integer product, so Q is exactly symmetric
    Q = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    Q.flags.writeable = False
    return Q


def _sine_eigenvalues(m: int) -> np.ndarray:
    """The eigenvalues of ``T_m``, in :func:`dst_matrix`'s mode order."""
    k = np.arange(1, m + 1)
    return 4.0 * np.sin(np.pi * k / (2.0 * (m + 1))) ** 2


def strip_factor(A: CsrMatrix) -> StripFactor:
    """Factor the Poisson strip ``A`` (see :func:`strip_shape`) for fast
    diagonalization; any other matrix raises ``ValueError``."""
    shape = strip_shape(A)
    if shape is None:
        raise ValueError("CgOperator.solve_direct() needs a Poisson strip "
                         "c·(T_m ⊗ I_n + I_m ⊗ T_n)")
    m, n, c = shape

    from scipy.linalg import lapack

    d = np.repeat(c * (_sine_eigenvalues(m) + 2.0), n)
    e = np.full(m * n - 1, -c)
    e[n - 1::n] = 0.0  # mode k's last point does not couple to mode k+1's
    d, e, info = lapack.dpttrf(d, e)
    if info != 0:
        raise ValueError(f"pttrf failed (info={info})")
    return StripFactor(m, n, dst_matrix(m), d, e, lapack.dpttrs,
                       direct_flops_estimate(m, n))


def conjugate_gradient(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> CgResult:
    """Solve ``A x = b`` for SPD sparse ``A`` (a
    :class:`~repro.numerics.csr.CsrMatrix`, a scipy sparse matrix or a
    dense array), multiplying through scipy's CSR kernel.

    Convergence test: ``||r|| <= tol * ||b||`` (or absolute when b = 0).

    Parameters
    ----------
    x0:
        Warm start — the asynchronous outer iteration passes the previous
        local solution, which is why inner solves get cheap near the fixed
        point.
    """
    A = CsrMatrix.of(A).to_scipy()
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

    r = b - A @ x
    p = r.copy()
    rz = float(r @ r)
    res = float(np.linalg.norm(r))

    it = 0
    while res > stop and it < max_iter:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            # Not SPD along this direction: bail out rather than diverge.
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        rz_new = float(r @ r)
        beta = rz_new / rz if rz > 0 else 0.0
        p = r + beta * p
        rz = rz_new
        it += 1

    return CgResult(
        x=x,
        converged=res <= stop,
        iterations=it,
        residual_norm=res,
        flops=cg_flops_estimate(A.nnz, nrows, it),
    )


class CgOperator:
    """Per-matrix cached solver state.

    Holds the matrix, its matvec kernel (chosen by :func:`matvec_kernel`
    on the first multiply, so an operator that only solves — by CG or
    directly — stores no DIA copy), the sine eigenbasis of a Poisson
    strip (recognized on the first :meth:`solve`), the lazily cached
    :class:`StripFactor` of :meth:`solve_direct`, and preallocated work
    vectors, so repeated solves against the same matrix allocate at most
    their output ``x`` (see :meth:`_free_slot`).

    The matrix is **symmetric by contract**: the class solves by CG, which
    requires it, and every block it serves is a strip of a symmetric
    operator.  :meth:`factorization` goes further and accepts only a
    Poisson strip (see :func:`strip_factor`).

    Work buffers are scratch only: no state survives a solve, so one
    operator may serve many tasks sequentially.
    """

    def __init__(self, A: CsrMatrix):
        A = CsrMatrix.of(A)
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
        self._basis: tuple | None = None  # :meth:`_eigenbasis`, on 1st solve
        self._factor: StripFactor | None = None
        self._kernel = None  # built by :attr:`kernel` on the first multiply
        #: recycled solution buffers (see :meth:`_free_slot`); bounded so
        #: escaped buffers cannot pile up
        self._x_pool: list[np.ndarray] = []

    # -- cached pieces -------------------------------------------------------

    @property
    def kernel(self):
        """The prebound ``kernel(x, y)``: ``A @ x`` into a zeroed ``y``
        (see :func:`matvec_kernel`)."""
        if self._kernel is None:
            self._kernel = matvec_kernel(self.A)
        return self._kernel

    def _eigenbasis(self) -> tuple:
        """``(Q_m, Q_n, λ, grid, b̂)`` and ``grid``-shaped views of ``tmp``,
        ``b̂`` and ``Ap`` if ``A`` is a Poisson strip, else ``()``."""
        shape = strip_shape(self.A)
        if shape is None:
            return ()
        m, n, c = shape
        lam = c * (_sine_eigenvalues(m)[:, None] + _sine_eigenvalues(n))
        grid, bhat = (m, n), np.empty(self.n)
        return (dst_matrix(m), dst_matrix(n), lam.ravel(), grid, bhat,
                *(v.reshape(grid) for v in (self._tmp, bhat, self._Ap)))

    def factorization(self) -> StripFactor:
        """The cached :func:`strip_factor` of ``A`` (built on first use)."""
        if self._factor is None:
            self._factor = strip_factor(self.A)
        return self._factor

    def matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = A @ x`` into a caller buffer (bitwise-identical)."""
        out.fill(0.0)
        self.kernel(x, out)
        return out

    _X_POOL_MAX = 4

    def _free_slot(self) -> np.ndarray:
        """A solution buffer nothing outside the pool references, writable
        and holding stale values (callers overwrite or zero it).

        Callers retain the returned ``x`` (it becomes ``CgResult.x``, the
        task's live — frozen — iterate, possibly the base of in-flight
        zero-copy payload views or a Backup), so a slot is reused only
        when *nothing* outside the pool still references it, checked by
        refcount; such a slot is re-armed (made writable again), which
        makes recycling invisible.
        """
        pool = self._x_pool
        for slot in pool:
            # refs: pool list + loop binding + getrefcount argument
            if sys.getrefcount(slot) == 3:
                slot.flags.writeable = True
                return slot
        x = np.empty(self.n)
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
    ) -> CgResult:
        """Unpreconditioned CG solve: in the sine eigenbasis on a Poisson
        strip (see the module docstring), by :func:`conjugate_gradient`
        with its defaults on any other matrix."""
        basis = self._basis
        if basis is None:
            basis = self._basis = self._eigenbasis()
        if not basis:
            return conjugate_gradient(self.A, b, x0=x0, tol=tol,
                                      max_iter=max_iter)
        n = self.n
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},)")
        if max_iter is None:
            max_iter = max(10 * n, 100)
        Qm, Qn, lam, grid, bhat, tmp2, bhat2, Ap2 = basis
        r, p, Ap = self._r, self._p, self._Ap
        # b̂ = Q_m·B·Q_n; np.dot dispatches faster than matmul on small strips
        np.dot(Qm, b.reshape(grid), out=tmp2)
        np.dot(tmp2, Qn, out=bhat2)
        if x0 is None:
            np.copyto(r, bhat)
        else:
            x0 = np.asarray(x0, dtype=float)
            if x0.shape != (n,):
                raise ValueError("x0 shape mismatch")
            np.dot(Qm, x0.reshape(grid), out=tmp2)
            np.dot(tmp2, Qn, out=Ap2)
            np.multiply(lam, Ap, out=Ap)
            np.subtract(bhat, Ap, out=r)

        b_norm = _sqrt(b.dot(b))
        stop = tol * b_norm if b_norm > 0 else tol
        rz = float(r.dot(r))
        res = _sqrt(rz)
        np.copyto(p, r)

        it = 0
        while res > stop and it < max_iter:
            np.multiply(lam, p, out=Ap)
            pAp = float(p.dot(Ap))
            if pAp <= 0.0:
                break
            alpha = rz / pAp
            # r -= alpha * Ap; x is not kept, it is Λ⁻¹(b̂ − r̂)
            np.multiply(Ap, alpha, out=Ap)
            np.subtract(r, Ap, out=r)
            rz_new = float(r.dot(r))
            res = _sqrt(rz_new)
            beta = rz_new / rz if rz > 0 else 0.0
            np.multiply(p, beta, out=p)
            np.add(p, r, out=p)
            rz = rz_new
            it += 1

        # x = Q_m·(Λ⁻¹(b̂ − r̂))·Q_n
        np.subtract(bhat, r, out=Ap)
        np.divide(Ap, lam, out=Ap)
        np.dot(Qm, Ap2, out=tmp2)
        x = self._free_slot()
        np.dot(tmp2, Qn, out=x.reshape(grid))
        return CgResult(x, res <= stop, it, res,
                        cg_flops_estimate(self.nnz, n, it))

    def solve_direct(self, b: np.ndarray, tol: float = 1e-10) -> CgResult:
        """Exact solve by fast diagonalization (opt-in; see the module
        docstring).

        A different numerical method than CG, with different round-off.
        The returned :class:`CgResult` reports ``iterations=1`` and the
        :func:`direct_flops_estimate` charge, so the simulator's
        compute-time model stays meaningful — but enabling this path
        *does* change iteration counts and simulated time relative to CG,
        which is why it is never a default.  ``x`` comes from
        :meth:`_free_slot`, never from the operator's scratch, because
        cohort siblings share one operator; it is not zeroed, as the
        second GEMM overwrites every element.
        """
        f = self.factorization()
        m, n = f.m, f.n
        y = self._tmp.reshape(m, n)
        np.matmul(f.Q, b.reshape(m, n), out=y)
        f.pttrs(f.d, f.e, self._tmp, overwrite_b=True)
        x = self._free_slot()
        np.matmul(f.Q, y, out=x.reshape(m, n))
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
            flops=f.flops,
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
