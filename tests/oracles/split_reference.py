"""Reference oracle: the per-block CSC column slicing, verbatim as it stood
in ``repro/numerics/splitting.py`` (``_split_rows_legacy``) before the
vectorized CSR split became the only construction.  scipy's own slicing does
all the work — and canonicalizes non-canonical input through the CSC
round-trip — so it is obviously right and too slow to ship (one
``tocsc()`` of the row range per block); ``tests/test_hotpath_cache.py``
holds ``BlockDecomposition`` to it block by block.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["split_rows_reference"]


def split_rows_reference(A: sp.csr_matrix, N: int, ext_s: int, ext_e: int):
    """Original construction: slice rows, convert to CSC, slice columns."""
    ext_range = np.arange(ext_s, ext_e)
    A_rows = A[ext_s:ext_e, :].tocsc()
    inside = np.zeros(N, dtype=bool)
    inside[ext_range] = True
    col_nnz = np.diff(A_rows.indptr) > 0
    ext_cols = np.where(col_nnz & ~inside)[0]
    return (
        A_rows[:, ext_range].tocsr(),
        ext_cols,
        A_rows[:, ext_cols].tocsr(),
    )
