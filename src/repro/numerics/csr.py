"""The substrate's sparse matrix: compressed sparse rows in numpy alone.

:class:`CsrMatrix` is the one matrix type of :mod:`repro.numerics`: the
5-point builder (:func:`~repro.numerics.poisson.five_point_matrix`)
returns one, and a :class:`~repro.numerics.splitting.BlockDecomposition`
stores its global matrix, every ``A_local`` and every ``B_coupling`` as
one.  It holds read-only ``data`` (float64), ``indices`` and ``indptr``
arrays, a ``shape`` and an ``nnz``, and multiplies a vector with
:meth:`CsrMatrix.matvec_into` or ``@``.

**Same bits as scipy.**  scipy's ``csr_matvec`` computes each row as a
serial chain ``y[i] = ((0 + a₁x₁) + a₂x₂) + …`` over the row's stored
entries, in stored order.  The product here runs the same chain for all
rows at once, one *slot* at a time: rows sorted by entry count (longest
first, stable) make the rows that have a ``k``-th entry a prefix, so slot
``k`` is one contiguous ``np.add`` of the ``k``-th products into that
prefix.  Each element then sees exactly the IEEE multiplies and adds, in
exactly the order, of the C loop: byte for byte, ``-0.0`` and infinities
included (``tests/oracles`` holds scipy as the reference; where two NaNs
meet, either may survive, so a NaN result can differ in its sign bit).  The
slot layout (the products' gather order and the row permutation) is
built on the first multiply and cached; a matrix whose rows are already
longest-first, as the coupled rows of a strip are, needs no permutation.

scipy loads only where a scipy *algorithm* runs — a reference solve, the
DIA kernel, the direct solve's LAPACK factor, a Jacobian's algebra —
through :meth:`CsrMatrix.to_scipy`, a cached ``scipy.sparse.csr_matrix``
over the same arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["CsrMatrix"]

#: rows ``@`` multiplies per pass (each row is independent, so blocks give
#: the same bytes as one pass)
_ROWS_PER_PASS = 4096


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` (``a`` itself stays as it was)."""
    v = a.view()
    v.flags.writeable = False
    return v


class CsrMatrix:
    """An immutable CSR matrix of float64 values (see the module docstring).

    Build one from raw CSR arrays, or with :meth:`of` from a scipy sparse
    matrix (sharing its arrays) or a dense array.  The arrays are stored
    as read-only views, so a matrix shared across tasks cannot be written
    through.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "nnz", "_slots",
                 "_scipy")

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = _frozen(np.asarray(indptr))
        self.indices = _frozen(np.asarray(indices))
        self.data = _frozen(np.asarray(data, dtype=np.float64))
        self.nnz = int(self.indptr[-1]) if self.indptr.size else 0
        if (self.indptr.shape != (self.shape[0] + 1,)
                or self.indices.shape != (self.nnz,)
                or self.data.shape != (self.nnz,)):
            raise ValueError("inconsistent CSR arrays for shape "
                             f"{self.shape}")
        self._slots: tuple | None = None  # built by the first multiply
        self._scipy = None

    @classmethod
    def of(cls, A) -> CsrMatrix:
        """``A`` itself if it is a :class:`CsrMatrix`; a scipy sparse matrix
        as CSR, sharing its arrays as stored (unsorted or duplicate entries
        stay as they are); a dense 2-D array by its nonzeros."""
        if isinstance(A, cls):
            return A
        if hasattr(A, "tocsr"):
            S = A.tocsr()
            return cls(S.data, S.indices, S.indptr, S.shape)
        D = np.asarray(A, dtype=np.float64)
        if D.ndim != 2:
            raise ValueError(f"a matrix must be 2-D, got shape {D.shape}")
        rows, cols = np.nonzero(D)
        indptr = np.zeros(D.shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=D.shape[0]), out=indptr[1:])
        return cls(D[rows, cols], cols.astype(np.int32), indptr, D.shape)

    # -- products ------------------------------------------------------------

    def _slot_layout(self) -> tuple:
        """The cached plan of :meth:`matvec_into`: ``(gather, data, work,
        head, zeros, tail, perm, acc, width)``.

        In slot order — the first entries of every row that has one, then
        the second entries, … with rows longest first — ``gather`` holds
        the column indices (``None`` when they are ``0, 1, …``, as for a
        strip's coupled rows) and ``data`` the values; ``work`` receives
        the products.  ``head`` is the first-slot part of ``work``,
        ``zeros`` as many +0.0s, ``tail`` one ``(rows, products)`` pair per
        later slot, ``perm`` the row order (``None`` when rows are already
        longest-first), ``acc`` the rows in that order and ``width`` the
        shape of ``x``.
        """
        n_row, n_col = self.shape
        indptr, indices = self.indptr, self.indices
        if self.nnz and not (0 <= int(indices.min())
                             and int(indices.max()) < n_col):
            raise ValueError("column index out of range")
        counts = np.diff(indptr)
        perm = np.argsort(-counts, kind="stable")
        by_length = counts[perm]
        longest = int(by_length[0]) if n_row else 0
        bounds = [int(np.count_nonzero(by_length > k))
                  for k in range(longest)]
        starts = indptr[:-1][perm]
        order = np.concatenate([starts[:b] + k for k, b in enumerate(bounds)]
                               or [np.empty(0, dtype=np.intp)])
        gather, data = indices[order], self.data[order]
        if n_col == self.nnz and (gather == np.arange(n_col)).all():
            gather = None
        work = np.empty(self.nnz)
        lead = bounds[0] if bounds else 0
        tail, pos = [], lead
        for b in bounds[1:]:
            tail.append((b, work[pos:pos + b]))
            pos += b
        identity = bool((perm == np.arange(n_row)).all())
        return (gather, data, work, work[:lead], np.zeros(lead), tail,
                None if identity else perm,
                None if identity else np.empty(n_row), (n_col,))

    def matvec_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = A @ x`` for a float64 ``x``, into a caller's float64
        buffer of length ``shape[0]``: byte for byte what scipy's ``A @ x``
        gives."""
        layout = self._slots
        if layout is None:
            layout = self._slots = self._slot_layout()
        gather, data, work, head, zeros, tail, perm, acc, width = layout
        if x.shape != width:
            raise ValueError(f"x has shape {x.shape}, expected {width}")
        # outputs are passed positionally: a keyword costs more than the
        # arithmetic on a strip's few hundred coupled rows
        if gather is None:
            np.multiply(data, x, work)
        else:
            # the indices were range-checked when the layout was built
            x.take(gather, None, work, "clip")
            np.multiply(data, work, work)
        y = out if acc is None else acc
        lead = zeros.size
        if lead == y.size:
            np.add(head, zeros, y)  # each row starts 0 + a₁x₁
        else:
            np.add(head, zeros, y[:lead])
            y[lead:] = 0.0  # rows without entries
        for b, products in tail:
            rows = y[:b]
            np.add(rows, products, rows)
        if acc is not None:
            out[perm] = acc
        return out

    def __matmul__(self, x) -> np.ndarray:
        """``A @ x`` in a new array; a matrix of more than
        ``_ROWS_PER_PASS`` rows is multiplied one row block at a time,
        through uncached layouts, so a one-shot product (a residual check)
        holds scratch for one block, not for the whole matrix."""
        x = np.asarray(x, dtype=np.float64)
        n_row = self.shape[0]
        out = np.empty(n_row)
        if n_row <= _ROWS_PER_PASS:
            return self.matvec_into(x, out)
        indptr = self.indptr
        for top in range(0, n_row, _ROWS_PER_PASS):
            end = min(top + _ROWS_PER_PASS, n_row)
            lo, hi = int(indptr[top]), int(indptr[end])
            block = CsrMatrix(self.data[lo:hi], self.indices[lo:hi],
                              indptr[top:end + 1] - lo,
                              (end - top, self.shape[1]))
            block.matvec_into(x, out[top:end])
        return out

    # -- conversions -----------------------------------------------------------

    def toarray(self) -> np.ndarray:
        """The dense matrix (duplicate entries summed)."""
        D = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(D, (rows, self.indices), self.data)
        return D

    def to_scipy(self) -> sp.csr_matrix:
        """The same matrix as a ``scipy.sparse.csr_matrix`` over the same
        (read-only) arrays, built on first use and cached; importing scipy
        here is what lets every other path skip it."""
        if self._scipy is None:
            import scipy.sparse as sp

            self._scipy = sp.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape)
        return self._scipy
