"""The substrate's matrix type, :class:`repro.numerics.CsrMatrix`, held to
scipy (``tests/oracles/csr_reference.py``).

* Its product — :meth:`~repro.numerics.CsrMatrix.matvec_into` and ``@`` —
  gives the bytes scipy's ``csr_matvec`` gives: on random canonical CSR
  matrices (empty rows, ±0.0 among values and inputs, rows of 0–7
  entries), on every app's coupled rows and on the global Poisson matrix.
* The 5-point builder's ``indptr``/``indices``/``data``, dtypes included,
  are the arrays of the former ``sp.diags`` construction and of the
  Kronecker sum ``c·(T_m ⊗ I_n + I_m ⊗ T_n)``.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    ConvectionDiffusionTask,
    HeatTask,
    JacobiTask,
    NonlinearPoissonTask,
    PoissonTask,
)
from repro.experiments.config import optimal_overlap
from repro.numerics import CsrMatrix, five_point_matrix, poisson_matrix
from tests.helpers import strip_task
from tests.oracles.csr_reference import diags_poisson, kron_strip, scipy_matvec

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: ±0.0 often, then any float but NaN (a NaN meeting a NaN may keep
#: either one's sign bit)
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(allow_nan=False))


def _assert_scipy_bytes(A: CsrMatrix, x: np.ndarray) -> None:
    want = scipy_matvec(A, x).tobytes()
    assert (A @ x).tobytes() == want
    out = np.full(A.shape[0], np.nan)
    assert A.matvec_into(x, out) is out
    assert out.tobytes() == want
    out.fill(np.nan)  # again, on the cached slot layout
    assert A.matvec_into(x, out).tobytes() == want


@st.composite
def canonical_products(draw):
    """A canonical CSR matrix (sorted, duplicate-free rows of 0–7
    entries, empty rows included) and an input vector."""
    n_col = draw(st.integers(1, 10))
    n_row = draw(st.integers(0, 10))
    rows = [sorted(draw(st.sets(st.integers(0, n_col - 1),
                                max_size=min(7, n_col))))
            for _ in range(n_row)]
    indptr = np.zeros(n_row + 1, dtype=np.int32)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([j for r in rows for j in r], dtype=np.int32)
    data = draw(st.lists(VALUES, min_size=indices.size,
                         max_size=indices.size))
    x = draw(st.lists(VALUES, min_size=n_col, max_size=n_col))
    return (CsrMatrix(np.array(data, dtype=float), indices, indptr,
                      (n_row, n_col)), np.array(x, dtype=float))


@PROPERTY
@given(case=canonical_products())
def test_the_product_is_scipys_on_random_canonical_matrices(case):
    with np.errstate(all="ignore"):  # overflow to ±inf, inf − inf
        _assert_scipy_bytes(*case)


#: (app, params, tasks): every app's strips, and the ledger's CG strips
#: (fig7_column and smallblock_churn, quick) at their overlaps
COUPLED = [
    (PoissonTask, {"n": 12, "overlap": 1}, 3),
    (PoissonTask, {"n": 12, "problem": "plate"}, 3),
    (JacobiTask, {"n": 12}, 3),
    (HeatTask, {"n": 12}, 3),
    (NonlinearPoissonTask, {"n": 12, "overlap": 1}, 3),
    (ConvectionDiffusionTask, {"n": 12, "overlap": 2}, 3),
    (PoissonTask, {"n": 7}, 7),  # one-line strips: two entries a row
    (PoissonTask, {"n": 96, "overlap": optimal_overlap(96, 8)}, 8),
    (PoissonTask, {"n": 40, "overlap": optimal_overlap(40, 10)}, 10),
]


@lru_cache(maxsize=None)
def _matrices(case: int) -> list[CsrMatrix]:
    if case < len(COUPLED):
        cls, params, tasks = COUPLED[case]
        return [strip_task(cls, params, k, tasks)._B_rows
                for k in range(tasks)]
    return [poisson_matrix(n) for n in (1, 2, 8, 96)]


def _vector(size: int, seed: int) -> np.ndarray:
    """Magnitudes spread over 1e-8…1e8, with ±0.0 at random places."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)
    x[rng.random(size) < 0.2] = 0.0
    x[rng.random(size) < 0.2] = -0.0
    return x


@pytest.mark.parametrize("case", range(len(COUPLED) + 1),
                         ids=[f"{c.__name__}-{p}" for c, p, _ in COUPLED]
                         + ["poisson-1-2-8-96"])
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_the_product_is_scipys_on_coupled_rows_and_poisson(case, seed):
    for A in _matrices(case):
        _assert_scipy_bytes(A, _vector(A.shape[1], seed))


def _assert_same_arrays(A: CsrMatrix, ref: sp.csr_matrix) -> None:
    assert A.shape == ref.shape and A.nnz == ref.nnz
    for got, want in ((A.indptr, ref.indptr), (A.indices, ref.indices),
                      (A.data, ref.data)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scaled", [True, False])
@pytest.mark.parametrize("n", [2, 5, 24, 96, 256])
def test_poisson_matrix_is_the_former_diags_construction(n, scaled):
    _assert_same_arrays(poisson_matrix(n, scaled), diags_poisson(n, scaled))


SIDES = [1, 2, 5, 24, 96, 256]


@pytest.mark.parametrize("n", SIDES)
@pytest.mark.parametrize("m", SIDES)
def test_five_point_matrix_is_the_kronecker_sum(m, n):
    c = (m + 1.0) ** 2 / 3.0  # not a power of two
    _assert_same_arrays(five_point_matrix(m, n, c), kron_strip(m, n, c))


def test_a_matrix_is_read_only_and_converts_both_ways():
    S = sp.random(6, 5, density=0.4, format="csr", random_state=3)
    A = CsrMatrix.of(S)
    assert CsrMatrix.of(A) is A
    with pytest.raises(ValueError):
        A.data[0] = 1.0
    S.data[0] = 7.0  # the wrapped arrays are shared, as views
    assert A.data[0] == 7.0
    assert A.to_scipy() is A.to_scipy()
    assert np.shares_memory(A.to_scipy().data, S.data)
    assert np.array_equal(A.toarray(), S.toarray())
    dense = CsrMatrix.of(S.toarray())
    _assert_same_arrays(dense, S)
    with pytest.raises(ValueError):
        CsrMatrix(S.data, S.indices, S.indptr[:-1], S.shape)
