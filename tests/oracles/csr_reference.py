"""Reference oracle for :class:`repro.numerics.csr.CsrMatrix`: scipy.

* :func:`scipy_matvec` — scipy's C ``csr_matvec`` on a matrix's own
  arrays, into a zeroed vector: exactly what ``csr_matrix @ x`` runs;
* :func:`diags_poisson` — the 5-point Laplacian as
  ``repro/numerics/poisson.py`` built it before the per-diagonal builder,
  verbatim: ``sp.diags`` of five padded diagonals, times ``1/h²``;
* :func:`kron_strip` — ``c·(T_m ⊗ I_n + I_m ⊗ T_n)`` through ``sp.kron``,
  the form ``strip_shape`` compared against before, canonical: for
  ``n ≤ 2`` scipy's Kronecker product stores dense blocks, whose zero
  entries survive as explicit zeros until :meth:`eliminate_zeros`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

__all__ = ["scipy_matvec", "diags_poisson", "kron_strip"]


def scipy_matvec(A, x: np.ndarray) -> np.ndarray:
    """``A @ x`` by scipy's CSR kernel on ``A``'s stored arrays."""
    y = np.zeros(A.shape[0])
    csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, y)
    return y


def diags_poisson(n: int, scaled: bool = True) -> sp.csr_matrix:
    """The former ``poisson_matrix(n, scaled)`` (``n ≥ 2``: at ``n = 1``
    ``sp.diags`` refuses the repeated offsets ±1 = ±n)."""
    h2inv = (n + 1.0) ** 2 if scaled else 1.0
    main = 4.0 * np.ones(n * n)
    side = -1.0 * np.ones(n * n - 1)
    # no horizontal coupling across grid-row boundaries
    side[np.arange(1, n * n) % n == 0] = 0.0
    updown = -1.0 * np.ones(n * n - n)
    A = sp.diags(
        [main, side, side, updown, updown],
        [0, 1, -1, n, -n],
        format="csr",
    )
    return (A * h2inv).tocsr()


def kron_strip(m: int, n: int, c: float) -> sp.csr_matrix:
    """``c·(T_m ⊗ I_n + I_m ⊗ T_n)`` with ``T_k = tridiag(-1, 2, -1)``."""

    def tridiag(k):
        return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))

    A = (c * (sp.kron(tridiag(m), sp.identity(n))
              + sp.kron(sp.identity(m), tridiag(n)))).tocsr()
    A.eliminate_zeros()
    return A
