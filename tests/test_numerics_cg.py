"""The CG operator's matvec kernel choice and its two solve paths.

:func:`repro.numerics.cg.matvec_kernel` multiplies a canonical, banded CSR
matrix through scipy's diagonal-storage (DIA) kernel and anything else
through the CSR kernel.  The DIA kernel must produce, bit for bit, what
``A @ x`` produces, on every strip the ledger solves, and the DIA copy is
built only by an operator that multiplies.

:meth:`CgOperator.solve` runs CG in the sine eigenbasis of a Poisson
strip — equal to :func:`conjugate_gradient` in iteration count,
convergence and flop charge, and in ``x`` up to round-off, on a fixed
corpus — and hands any other matrix to :func:`conjugate_gradient`, bit for
bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec, dia_matvec

from repro.compute import ComputePlane
from repro.experiments.config import optimal_overlap
from repro.numerics import (
    BlockDecomposition,
    CgOperator,
    Poisson2D,
    block_operator,
    conjugate_gradient,
    shared_decomposition,
)
from repro.numerics.cg import (
    cg_flops_estimate,
    dst_matrix,
    matvec_kernel,
    strip_shape,
)
from tests.helpers import clear_caches, poisson_strip, shifted


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _inputs(size: int) -> list[np.ndarray]:
    """Random vectors spanning 1e-8…1e8 in magnitude, the zero vector,
    and vectors carrying -0.0 entries."""
    rng = np.random.default_rng(size)
    spread = []
    for _ in range(3):
        signs = rng.choice([-1.0, 1.0], size)
        spread.append(signs * 10.0 ** rng.uniform(-8.0, 8.0, size))
    some_negative_zeros = spread[0].copy()
    some_negative_zeros[rng.random(size) < 0.3] = -0.0
    return [*spread, rng.standard_normal(size), np.zeros(size),
            np.full(size, -0.0), some_negative_zeros]


def _multiply(kernel, x: np.ndarray) -> bytes:
    y = np.zeros(x.size)
    kernel(x, y)
    return y.tobytes()


#: (n, peers) of every strip the ledger builds: fig7_column (full, quick),
#: smallblock_churn (quick, full) and direct16 (quick, full)
LEDGER_STRIPS = [(96, 8), (128, 8), (40, 10), (64, 16), (256, 8), (256, 16)]


@pytest.mark.parametrize("n,peers", LEDGER_STRIPS)
def test_dia_kernel_is_bitwise_csr_on_every_ledger_strip(n, peers):
    prob = Poisson2D.manufactured(n)
    d = BlockDecomposition(prob.A, prob.b, nblocks=peers, line=n,
                           overlap=optimal_overlap(n, peers))
    # the first block is an edge strip, the middle one an interior strip
    for blk in (d.blocks[0], d.blocks[peers // 2], d.blocks[-1]):
        A = blk.A_local
        dia = matvec_kernel(A)
        assert dia.func is dia_matvec
        offsets = dia.args[4]
        assert list(offsets) == sorted(offsets)
        for x in _inputs(A.shape[0]):
            want = _multiply(
                lambda x, y: csr_matvec(*A.shape, A.indptr, A.indices,
                                        A.data, x, y), x)
            assert _multiply(dia, x) == want
            assert (A @ x).tobytes() == want


def _backwards(S: sp.csr_matrix) -> sp.csr_matrix:
    """``S`` with every row's column indices stored in descending order."""
    indices, data = S.indices.copy(), S.data.copy()
    for lo, hi in zip(S.indptr[:-1], S.indptr[1:]):
        indices[lo:hi] = indices[lo:hi][::-1]
        data[lo:hi] = data[lo:hi][::-1]
    return sp.csr_matrix((data, indices, S.indptr.copy()), shape=S.shape)


def _duplicated_diagonal(S: sp.csr_matrix) -> sp.csr_matrix:
    """``S`` with each diagonal entry stored twice, as two halves."""
    indptr, indices, data = [0], [], []
    for i in range(S.shape[0]):
        lo, hi = S.indptr[i], S.indptr[i + 1]
        for j, v in zip(S.indices[lo:hi], S.data[lo:hi]):
            copies = 2 if j == i else 1
            indices += [j] * copies
            data += [v / copies] * copies
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)), shape=S.shape)


def _dense_spd(size: int) -> np.ndarray:
    M = np.random.default_rng(5).standard_normal((size, size))
    return M @ M.T + size * np.eye(size)


#: matrices the CSR kernel multiplies; none is a Poisson strip, so the
#: operator solves them by :func:`conjugate_gradient`
FALLBACKS = {
    "unsorted-indices": lambda: _backwards(
        shifted(Poisson2D.manufactured(8).A)),
    "duplicate-entries": lambda: _duplicated_diagonal(
        shifted(Poisson2D.manufactured(8).A)),
    "dense-spd": lambda: _dense_spd(30),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallbacks_keep_csr_and_stay_bitwise(name):
    A = FALLBACKS[name]()
    op = CgOperator(A)
    assert op.kernel == op.A.matvec_into
    b = np.random.default_rng(9).standard_normal(op.n)
    x0 = np.random.default_rng(10).standard_normal(op.n)
    for kwargs in ({}, {"x0": x0}, {"max_iter": 3}):
        got = op.solve(b, tol=1e-10, **kwargs)
        ref = conjugate_gradient(A, b, tol=1e-10, **kwargs)
        assert got.x.tobytes() == ref.x.tobytes()
        assert (got.iterations, got.residual_norm, got.flops) == \
            (ref.iterations, ref.residual_norm, ref.flops)


def test_dia_solves_are_bitwise_conjugate_gradient():
    # a banded matrix that is no Poisson strip: multiplied through the DIA
    # kernel, solved by the reference loop
    A = shifted(poisson_strip(96, 8, 6).A_local)
    op = CgOperator(A)
    x = np.random.default_rng(2).standard_normal(op.n)
    assert op.matvec(x, np.empty(op.n)).tobytes() == (A @ x).tobytes()
    assert op.kernel.func is dia_matvec
    b = np.random.default_rng(3).standard_normal(op.n)
    x0 = np.random.default_rng(1).standard_normal(op.n)
    for kwargs in ({}, {"x0": x0}, {"max_iter": 5}):
        got = op.solve(b, tol=1e-10, **kwargs)
        ref = conjugate_gradient(A, b, tol=1e-10, **kwargs)
        assert got.x.tobytes() == ref.x.tobytes()
        assert (got.iterations, got.residual_norm) == \
            (ref.iterations, ref.residual_norm)
    assert op._basis == ()


def test_an_operator_that_never_multiplies_builds_no_dia_copy():
    # neither solve path multiplies by A: only matvec builds the kernel
    blk = poisson_strip(96, 8, 6)
    op = CgOperator(blk.A_local)
    op.factorization()
    op.solve(blk.b_local)
    assert op._kernel is None
    op.matvec(blk.b_local, np.empty(op.n))
    assert op._kernel.func is dia_matvec


def test_only_the_canonical_operator_of_a_cohort_builds_a_kernel():
    blk = poisson_strip(96, 8, 6)
    ops = [CgOperator(blk.A_local.to_scipy().copy()) for _ in range(3)]
    plane = ComputePlane()
    shared = [plane.operator_for(op) for op in ops]
    assert all(op is ops[0] for op in shared)
    for op in shared:
        op.solve(blk.b_local)
        op.solve_direct(blk.b_local)
    assert ops[0]._kernel.func is dia_matvec
    assert ops[1]._kernel is None and ops[2]._kernel is None


def test_kernel_builds_on_a_frozen_block_without_touching_it():
    prob = Poisson2D.manufactured(24)
    d = shared_decomposition(("poisson", 24), lambda: (prob.A, prob.b),
                             nblocks=4, line=24, overlap=2)
    blk = d.blocks[1]
    A = blk.A_local
    assert not A.data.flags.writeable
    before = A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()
    op = block_operator(blk)
    out = np.empty(op.n)
    x = np.random.default_rng(2).standard_normal(op.n)
    assert op.matvec(x, out).tobytes() == (A @ x).tobytes()
    assert op.kernel.func is dia_matvec
    assert (A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()) == before
    # a frozen matrix that is not canonical is multiplied as it is stored,
    # never sorted in place
    S = _backwards(prob.A.to_scipy())
    for arr in (S.indptr, S.indices, S.data):
        arr.flags.writeable = False
    stored = S.indices.tobytes()
    x = np.random.default_rng(3).standard_normal(S.shape[0])
    assert _multiply(matvec_kernel(S), x) == (S @ x).tobytes()
    assert S.indices.tobytes() == stored
    # the direct solve's factor reads both matrices on a canonical copy
    assert op.solve_direct(blk.b_local).converged
    assert (A.indptr.tobytes(), A.indices.tobytes(),
            A.data.tobytes()) == before
    assert CgOperator(S).factorization().n == 24
    assert S.indices.tobytes() == stored


# ----------------------------------------------- spectral CG on strips


def _start(kind: str, b: np.ndarray) -> tuple[np.ndarray, dict]:
    """The rhs and solve options of one corpus case."""
    rng = np.random.default_rng(b.size)
    if kind == "cold":
        return b, {}
    if kind == "warm":
        return b, {"x0": rng.standard_normal(b.size)}
    if kind == "capped":
        return b, {"max_iter": 5}
    assert kind == "random-rhs"
    return rng.standard_normal(b.size), {}


#: (n, nblocks, overlap, block, start): edge and interior strips of the
#: ledger's CG decompositions at their ``optimal_overlap`` (fig7_column
#: quick and full, smallblock_churn quick and full), a one-line strip
#: (m = 1) and a two-block split; cold, warm, capped and a random rhs
SPECTRAL_CORPUS = [
    (96, 8, 6, 4, "cold"), (96, 8, 6, 4, "warm"), (96, 8, 6, 4, "capped"),
    (96, 8, 6, 0, "warm"), (96, 8, 6, 0, "capped"),
    (96, 8, 6, 7, "random-rhs"), (128, 8, 8, 4, "cold"),
    (40, 10, 2, 0, "cold"), (40, 10, 2, 0, "warm"), (40, 10, 2, 5, "cold"),
    (64, 16, 2, 0, "cold"), (64, 16, 2, 8, "warm"),
    (8, 8, 0, 3, "cold"), (8, 8, 0, 3, "warm"), (10, 2, 2, 1, "warm"),
]


@pytest.mark.parametrize("n,nblocks,overlap,index,start", SPECTRAL_CORPUS)
def test_spectral_solves_match_conjugate_gradient(n, nblocks, overlap, index,
                                                  start):
    blk = poisson_strip(n, nblocks, overlap, index)
    A = blk.A_local
    b, kwargs = _start(start, blk.b_local)
    op = CgOperator(A)
    got = op.solve(b, **kwargs)
    ref = conjugate_gradient(A, b, **kwargs)
    assert len(op._basis) > 0  # the eigenbasis path ran
    assert (got.iterations, got.converged, got.flops) == (
        ref.iterations, ref.converged, ref.flops)
    assert got.iterations > 0
    assert (np.linalg.norm(got.x - ref.x)
            <= 1e-12 * np.linalg.norm(ref.x))


@pytest.mark.parametrize("index,tol", [(0, 1e-10), (7, 1e-10), (4, 1e-6)])
def test_a_smooth_rhs_may_take_one_more_spectral_iteration(index, tol):
    # The manufactured rhs is smooth: over half of its sine coefficients
    # are below 2e-18 of the largest, but the forward map rounds each one
    # by up to 2e-15 of it, and CG spends an iteration on that noise (with
    # the coefficients computed in long double it stops with the
    # reference).  The answers agree to well below the tolerance.
    blk = poisson_strip(96, 8, 6, index)
    got = CgOperator(blk.A_local).solve(blk.b_local, tol=tol)
    ref = conjugate_gradient(blk.A_local, blk.b_local, tol=tol)
    assert got.converged and ref.converged
    assert got.iterations == ref.iterations + 1
    assert got.flops == cg_flops_estimate(blk.A_local.nnz, blk.n_ext,
                                          got.iterations)
    assert (np.linalg.norm(got.x - ref.x)
            <= 1e-2 * tol * np.linalg.norm(ref.x))


def test_spectral_solves_read_unsorted_strips_and_keep_their_x():
    S = poisson_strip(24, 4, 2).A_local.to_scipy()
    backwards = _backwards(S)
    b = np.random.default_rng(4).standard_normal(S.shape[0])
    op = CgOperator(backwards)
    got = op.solve(b)
    assert got.x.tobytes() == CgOperator(S).solve(b).x.tobytes()
    assert not backwards.has_sorted_indices  # read, never sorted in place
    # x is the caller's: the next solve writes a different buffer
    kept = got.x.copy()
    op.solve(2.0 * b)
    assert got.x.tobytes() == kept.tobytes()


def test_strip_shape_recognizes_only_exact_poisson_strips():
    blk = poisson_strip(40, 10, 2, 0)
    m, n, c = strip_shape(blk.A_local)
    assert (m * n, n) == (blk.n_ext, 40) and c > 0.0
    assert strip_shape(shifted(blk.A_local)) is None
    assert strip_shape(sp.csr_matrix(np.eye(4))) is None
    # the DST-I matrix is orthonormal, symmetric, cached and read-only
    Q = dst_matrix(m)
    assert Q is dst_matrix(m) and not Q.flags.writeable
    assert np.array_equal(Q, Q.T)
    assert np.allclose(Q @ Q, np.eye(m), atol=1e-14)
