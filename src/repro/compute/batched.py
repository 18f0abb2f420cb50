"""Batched inner-solve kernels for the compute plane.

Two kernels, both engineered so that **per column** they perform the same
floating-point operations in the same order as the scalar paths in
:mod:`repro.numerics.cg` — the property that keeps the plane invisible to
simulated time:

* :func:`chunked_direct_solve` — stacked multi-RHS triangular solves through
  one cached ``splu`` factorization.  SuperLU's stacked solve switches
  internal blocking with problem size; past that point per-column rounding
  differs from the single-vector path and even depends on the values
  sharing the panel.  The plane therefore probes each cohort once
  (:func:`panel_probe`) with synthetic random panels and trusts the stacked
  path only in the regime where it is exactly the 1-D kernel per column.
  Chunks are always zero-padded to a fixed width so per-column results stay
  stable when batch composition varies (members joining, leaving, or
  crashing mid-cohort).

* :func:`batched_cg` — lock-step batched conjugate gradient.  Member
  vectors live as *contiguous rows* of ``(k, n)`` SoA arrays so every dot
  product and axpy touches exactly the memory a scalar solve would (strided
  BLAS dots are *not* bitwise-identical to contiguous ones — measured).
  Only the matvec is fused: rows are transposed into an ``(n, k)`` buffer,
  one sparse·dense multiply runs scipy's ``csr_matvecs`` kernel (bitwise
  per column equal to ``csr_matvec`` — measured), and the result is
  transposed back.  Members deactivate individually at their own stopping
  iteration, exactly where their scalar loop would exit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.numerics.cg import CgResult, cg_flops_estimate, csr_matvec_into

try:  # scipy's C multi-vector kernel: Y += A @ X without allocating
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - scipy layout change
    _csr_matvecs = None

__all__ = ["DIRECT_CHUNK", "csr_matmat_into", "panel_probe",
           "chunked_direct_solve", "batched_cg"]

#: Fixed multi-RHS chunk width (a whole number of SuperLU's internal
#: width-4 panels).  Chunks are zero-padded to this width so per-column
#: results never depend on how many real right-hand sides share the panel.
DIRECT_CHUNK = 8


def csr_matmat_into(A: sp.csr_matrix, X: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """``out = A @ X`` for dense C-order ``X`` of shape ``(n, k)``.

    Bitwise-identical per column to ``csr_matvec_into`` on that column
    (scipy's ``@`` runs the same accumulation per vector).
    """
    if _csr_matvecs is None:  # pragma: no cover - scipy layout change
        np.copyto(out, A @ X)
        return out
    out[:] = 0.0
    _csr_matvecs(A.shape[0], A.shape[1], X.shape[1],
                 A.indptr, A.indices, A.data, X, out)
    return out


#: seed for the probe's synthetic right-hand sides (any fixed constant)
_PROBE_SEED = 0x9E3779B9

#: independent random panels per probe.  Past SuperLU's internal blocking
#: threshold the stacked path diverges only for *some* value combinations:
#: on the Poisson strips measured, a diverging factorization gets 5-18 % of
#: columns wrong, so 4 panels (32 columns) still passed one in five of them
#: (8,192- and 12,800-row strips did).  16 panels leave about one in a
#: thousand at the 5 % rate.  A refusal exits at the first wrong column, so
#: only factorizations that earn a yes pay for every panel.
_PROBE_TRIALS = 16


def panel_probe(lu, n: int, panel: np.ndarray) -> bool:
    """Is this factorization's stacked path bitwise-trustworthy?

    SuperLU switches internal blocking with problem size, and past that
    point per-column panel results depend on the *values* sharing the
    panel — so probing with the live right-hand side proves nothing about
    the next one.  Instead the probe solves deterministic synthetic
    Gaussian vectors (value-representative in a way structured
    application vectors are not): once each as single vectors, once
    stacked as full panels of distinct columns, and once as a zero-padded
    singleton — and trusts panels only when every column of every trial
    reproduces its 1-D bytes exactly.
    """
    width = panel.shape[1]
    rng = np.random.default_rng(_PROBE_SEED)
    first = None
    for _ in range(_PROBE_TRIALS):
        cols = [rng.standard_normal(n) for _ in range(width)]
        refs = [lu.solve(c).tobytes() for c in cols]
        for j, c in enumerate(cols):
            panel[:, j] = c
        sol = lu.solve(panel)
        if any(sol[:, j].tobytes() != refs[j] for j in range(width)):
            return False
        if first is None:
            first = (cols[0], refs[0])
    col0, ref0 = first
    panel[:] = 0.0
    panel[:, 0] = col0
    return lu.solve(panel)[:, 0].tobytes() == ref0


def chunked_direct_solve(lu, rhs_list: list[np.ndarray],
                         panel: np.ndarray) -> list[np.ndarray]:
    """Solve every rhs through fixed-width multi-RHS panels.

    ``panel`` is the cohort's preallocated ``(n, DIRECT_CHUNK)`` buffer.
    Trailing unused columns stay zero, so per-column results never depend
    on how many real right-hand sides share the final panel.  Returns one
    contiguous, privately owned solution vector per rhs (callers keep them
    as live task state, so they must not alias the reusable panel
    machinery).
    """
    width = panel.shape[1]
    out: list[np.ndarray] = []
    for c0 in range(0, len(rhs_list), width):
        cols = rhs_list[c0:c0 + width]
        panel[:] = 0.0
        for j, r in enumerate(cols):
            panel[:, j] = r
        sol = lu.solve(panel)
        for j in range(len(cols)):
            # a true copy, not ascontiguousarray: SuperLU returns the
            # stacked solution F-ordered, so a column view is already
            # contiguous — but it would alias (and pin) the whole panel
            # solution, and callers keep these as live task state.
            out.append(sol[:, j].copy())
    return out


def batched_cg(op, requests: list, ws: dict) -> list[CgResult]:
    """Lock-step batched CG over one cohort's deferred requests.

    ``op`` is the cohort's canonical :class:`~repro.numerics.cg.CgOperator`
    (unpreconditioned path only — preconditioned plans never defer).
    ``requests`` is a list of ``(rhs, x0, tol, max_iter)``; ``ws`` is the
    cohort's workspace dict keyed by exact batch size (the ``(n, k)``
    matvec buffers must be contiguous at exactly ``k`` columns for the C
    kernel, so capacities are not over-allocated and sliced).

    Per member the arithmetic replicates ``CgOperator.solve`` operation by
    operation; see the module docstring for why that holds bitwise.
    """
    A, n, nnz = op.A, op.n, op.nnz
    k = len(requests)
    arrays = ws.get(k)
    if arrays is None:
        arrays = (np.empty((k, n)), np.empty((k, n)), np.empty((k, n)),
                  np.empty((k, n)), np.empty((n, k)), np.empty((n, k)),
                  np.empty(n))
        ws[k] = arrays
    X, R, P, AP, PT, MV, tmp = arrays

    stops = np.empty(k)
    rz = np.empty(k)
    res = np.empty(k)
    iters = np.zeros(k, dtype=np.intp)
    caps = np.empty(k, dtype=np.intp)
    converged = [False] * k
    active: list[int] = []

    for i, (b, x0, tol, max_iter) in enumerate(requests):
        caps[i] = max_iter if max_iter is not None else max(10 * n, 100)
        b_norm = float(np.sqrt(b.dot(b)))
        stops[i] = tol * b_norm if b_norm > 0 else tol
        if x0 is None:
            X[i] = 0.0
            # r = b - A @ 0: elementwise b[j] - 0.0 == b[j] bitwise.
            np.copyto(R[i], b)
        else:
            np.copyto(X[i], x0)
            csr_matvec_into(A, X[i], tmp)
            np.subtract(b, tmp, out=R[i])
        rz[i] = float(R[i].dot(R[i]))
        res[i] = float(np.sqrt(rz[i]))
        np.copyto(P[i], R[i])
        if res[i] > stops[i] and caps[i] > 0:
            active.append(i)
        else:
            converged[i] = res[i] <= stops[i]

    while active:
        # one fused matvec for the whole batch (converged columns carry
        # stale directions; their results are simply never read back)
        PT[:] = P.T
        csr_matmat_into(A, PT, MV)
        AP[:] = MV.T
        still: list[int] = []
        for i in active:
            pAp = float(P[i].dot(AP[i]))
            if pAp <= 0.0:
                converged[i] = False  # breakdown: exit before updating x
                continue
            alpha = rz[i] / pAp
            np.multiply(P[i], alpha, out=tmp)
            np.add(X[i], tmp, out=X[i])
            np.multiply(AP[i], alpha, out=tmp)
            np.subtract(R[i], tmp, out=R[i])
            rz_new = float(R[i].dot(R[i]))
            res[i] = float(np.sqrt(rz_new))
            beta = rz_new / rz[i] if rz[i] > 0 else 0.0
            np.multiply(P[i], beta, out=P[i])
            np.add(P[i], R[i], out=P[i])
            rz[i] = rz_new
            iters[i] += 1
            if res[i] > stops[i] and iters[i] < caps[i]:
                still.append(i)
            else:
                converged[i] = res[i] <= stops[i]
        active = still

    return [
        CgResult(
            x=X[i].copy(),
            converged=converged[i],
            iterations=int(iters[i]),
            residual_norm=float(res[i]),
            flops=cg_flops_estimate(nnz, n, int(iters[i])),
            residual_history=[],
        )
        for i in range(k)
    ]
