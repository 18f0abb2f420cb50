"""Tests for the hot-path caches: decomposition sharing, cached inner
solves, size memoization — each held, bit for bit, to the plain reference
it replaced (``tests/oracles/``, ``conjugate_gradient``),
which is what makes them invisible to simulated time."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.net.address import Address
from repro.numerics import (
    BlockDecomposition,
    CgOperator,
    CsrMatrix,
    Poisson2D,
    block_operator,
    conjugate_gradient,
    shared_decomposition,
)
from repro.numerics.cg import direct_flops_estimate
from repro.numerics.residual import update_distance
from repro.numerics.splitting import DECOMPOSITION_CACHE
from repro.rmi.invocation import is_remote, remote_method_table
from repro.rmi.runtime import RemoteObject
from repro.rmi.stub import Stub
from repro.util.serialization import measured_size
from tests.helpers import clear_caches, poisson_strip, shifted
from tests.oracles.payload_reference import _payload_size
from tests.oracles.split_reference import split_rows_reference


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _same_csr(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


# ------------------------------------------- the split vs its CSC reference


def _assert_blocks_match_reference(decomp, A):
    """Every block's split equals the oracle's on the caller's matrix."""
    A = CsrMatrix.of(A).to_scipy()
    for blk in decomp.blocks:
        A_local, ext_cols, B_coupling = split_rows_reference(
            A, decomp.N, blk.ext_start, blk.ext_end)
        _same_csr(blk.A_local, A_local)
        _same_csr(blk.B_coupling, B_coupling)
        assert np.array_equal(blk.ext_cols, ext_cols)


@pytest.mark.parametrize("n,nblocks,overlap", [
    (8, 1, 0), (8, 3, 0), (9, 3, 1), (12, 4, 2), (10, 2, 2), (12, 12, 0),
])
def test_fast_build_matches_legacy(n, nblocks, overlap):
    prob = Poisson2D.manufactured(n)
    fast = BlockDecomposition(prob.A, prob.b, nblocks=nblocks, line=n,
                              overlap=overlap)
    _assert_blocks_match_reference(fast, prob.A)
    for blk in fast.blocks:
        assert np.array_equal(blk.b_local, prob.b[blk.ext_start:blk.ext_end])
        for k in blk.send_map:
            assert np.array_equal(blk.send_local[k],
                                  blk.send_map[k] - blk.ext_start)


def test_fast_build_canonicalizes_noncanonical_input():
    # COO with duplicate entries: the build must match the reference, which
    # canonicalizes implicitly through the CSC round-trip.
    rows = [0, 0, 1, 1, 2, 2, 0]
    cols = [0, 1, 1, 2, 2, 0, 1]
    vals = [4.0, -1.0, 4.0, -1.0, 4.0, -1.0, -0.5]
    A = sp.coo_matrix((vals, (rows, cols)), shape=(3, 3)).tocsr()
    b = np.array([1.0, 2.0, 3.0])
    _assert_blocks_match_reference(BlockDecomposition(A, b, nblocks=3), A)


# ------------------------------------------------------ shared decomposition


def _poisson_system(n):
    prob = Poisson2D.manufactured(n)
    return lambda: (prob.A, prob.b)


def test_shared_decomposition_memoizes():
    d1 = shared_decomposition(("poisson", 8), _poisson_system(8),
                              nblocks=2, line=8, overlap=1)
    d2 = shared_decomposition(("poisson", 8), _poisson_system(8),
                              nblocks=2, line=8, overlap=1)
    assert d1 is d2
    assert DECOMPOSITION_CACHE.hits == 1 and DECOMPOSITION_CACHE.misses == 1


def test_shared_decomposition_key_isolation():
    d1 = shared_decomposition(("poisson", 8), _poisson_system(8),
                              nblocks=2, line=8)
    d2 = shared_decomposition(("heat", 8), _poisson_system(8),
                              nblocks=2, line=8)
    d3 = shared_decomposition(("poisson", 8), _poisson_system(8),
                              nblocks=4, line=8)
    assert d1 is not d2 and d1 is not d3
    assert len(DECOMPOSITION_CACHE) == 3


def test_cached_decomposition_is_frozen():
    d = shared_decomposition(("poisson", 8), _poisson_system(8),
                             nblocks=2, line=8, overlap=1)
    blk = d.blocks[0]
    with pytest.raises(ValueError):
        blk.b_local[0] = 1.0
    with pytest.raises(ValueError):
        blk.A_local.data[0] = 1.0
    with pytest.raises(ValueError):
        blk.ext_cols[0] = 1


# ----------------------------------------------------------- cached CG


def _assert_same_result(res_a, res_b):
    assert np.array_equal(res_a.x, res_b.x)
    assert res_a.converged == res_b.converged
    assert res_a.iterations == res_b.iterations
    assert res_a.residual_norm == res_b.residual_norm
    assert res_a.flops == res_b.flops


# A Poisson strip solves in its sine eigenbasis, equal to the reference
# up to round-off (tests/test_numerics_cg.py); any other matrix solves by
# the reference itself, which these pin bit for bit on shifted strips.


def test_cg_operator_bitwise_cold_start():
    prob = Poisson2D.manufactured(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=3, line=10, overlap=1)
    for blk in d.blocks:
        A = shifted(blk.A_local)
        op = CgOperator(A)
        ref = conjugate_gradient(A, blk.b_local, tol=1e-8)
        got = op.solve(blk.b_local, tol=1e-8)
        _assert_same_result(got, ref)


def test_cg_operator_bitwise_warm_start_and_cap():
    prob = Poisson2D.manufactured(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=2, line=10, overlap=2)
    blk = d.blocks[1]
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(blk.n_ext)
    A = shifted(blk.A_local)
    op = CgOperator(A)
    for max_iter in (3, None):
        ref = conjugate_gradient(A, blk.b_local, x0=x0,
                                 tol=1e-10, max_iter=max_iter)
        got = op.solve(blk.b_local, x0=x0, tol=1e-10, max_iter=max_iter)
        _assert_same_result(got, ref)


def test_cg_operator_repeated_solves_stay_identical():
    # Work buffers are scratch: a second solve must not see stale state —
    # on the eigenbasis path (a Poisson strip) and on the reference one
    prob = Poisson2D.manufactured(8)
    for A in (prob.A, shifted(prob.A)):
        op = CgOperator(A)
        ref = CgOperator(A).solve(prob.b, tol=1e-9)
        first = op.solve(prob.b, tol=1e-9)
        # a warm start in between writes every work vector
        op.solve(2.0 * prob.b, x0=np.ones(op.n), tol=1e-9)
        second = op.solve(prob.b, tol=1e-9)
        _assert_same_result(first, ref)
        _assert_same_result(second, ref)
    _assert_same_result(ref, conjugate_gradient(A, prob.b, tol=1e-9))


def test_matvec_into_matches_matmul():
    prob = Poisson2D.manufactured(9)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(prob.size)
    out = np.empty(prob.size)
    prob.A.matvec_into(x, out)
    assert np.array_equal(out, prob.A @ x)


def test_solve_direct_accuracy_and_flops():
    prob = Poisson2D.manufactured(8)
    op = CgOperator(prob.A)
    res = op.solve_direct(prob.b, tol=1e-10)
    assert res.converged and res.iterations == 1
    assert np.allclose(prob.A @ res.x, prob.b, atol=1e-10)
    # the charge is the documented FFT-based DST-I count, m = n = 8, L = 18
    assert res.flops == direct_flops_estimate(8, 8)
    assert res.flops == 2.0 * 8 * 2.5 * 18 * math.log2(18) + 8.0 * 8 * 8
    # the factorization is cached
    assert op.factorization() is op.factorization()
    # x is the caller's to keep: a second solve must not write into it
    kept = res.x.copy()
    op.solve_direct(2.0 * prob.b)
    assert np.array_equal(res.x, kept)


#: interior Poisson strips of about 2k, 8k and 16k rows: the ledger's and
#: the compute bench's block shapes (n, nblocks, overlap, rows)
STRIPS = [(96, 8, 6, 2304), (256, 16, 8, 8192), (256, 8, 16, 16384)]


@pytest.mark.parametrize("n,nblocks,overlap,index,rows", [
    *((n, nblocks, overlap, nblocks // 2, rows)
      for n, nblocks, overlap, rows in STRIPS),
    (256, 8, 16, 0, 48 * 256),  # direct16's edge strip: 48 lines
    (8, 8, 0, 3, 8),            # one grid line: m = 1
])
def test_factorization_accuracy_against_superlu(n, nblocks, overlap, index,
                                                rows):
    from scipy.sparse.linalg import splu

    blk = poisson_strip(n, nblocks, overlap, index)
    A, b = blk.A_local, blk.b_local
    op = CgOperator(A)
    assert op.n == rows
    factor = op.factorization()
    assert (factor.m, factor.n) == (rows // n, n)
    res = op.solve_direct(b, tol=1e-10)
    assert res.converged and res.iterations == 1
    assert res.flops == direct_flops_estimate(rows // n, n)

    def rel_residual(x):
        return np.linalg.norm(b - A @ x) / np.linalg.norm(b)

    lu = splu(A.to_scipy().tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert rel_residual(res.x) <= 10.0 * rel_residual(lu.solve(b))


def test_factorization_deterministic_across_operators():
    # cohort sharing and replay determinism rest on this: operators built
    # independently over byte-equal matrices are interchangeable
    blk = poisson_strip(96, 8, 6)
    op_a = CgOperator(blk.A_local)
    op_b = CgOperator(blk.A_local.to_scipy().copy())
    rhs = np.random.default_rng(3).standard_normal(op_a.n)
    assert (op_a.solve_direct(rhs).x.tobytes()
            == op_b.solve_direct(rhs).x.tobytes())


def test_factorization_refuses_unsymmetric_pattern():
    A = Poisson2D.manufactured(6).A.to_scipy().tolil()
    A[0, 17] = -1.0  # no matching (17, 0) entry
    op = CgOperator(A.tocsr())
    with pytest.raises(ValueError, match="Poisson strip"):
        op.factorization()
    # the check reads the matrix, not the storage order: a strip whose
    # CSR column indices are unsorted is accepted, and solves the same
    S = Poisson2D.manufactured(6).A.to_scipy()
    indices, data = S.indices.copy(), S.data.copy()
    for lo, hi in zip(S.indptr[:-1], S.indptr[1:]):
        indices[lo:hi] = indices[lo:hi][::-1]
        data[lo:hi] = data[lo:hi][::-1]
    backwards = sp.csr_matrix((data, indices, S.indptr.copy()), shape=S.shape)
    assert not backwards.has_sorted_indices
    rhs = np.random.default_rng(6).standard_normal(S.shape[0])
    assert (CgOperator(backwards).solve_direct(rhs).x.tobytes()
            == CgOperator(S).solve_direct(rhs).x.tobytes())
    assert not backwards.has_sorted_indices  # read, never sorted in place


@pytest.mark.parametrize("row,col", [(7, 8), (9, 9)],
                         ids=["off-diagonal", "diagonal"])
def test_factorization_refuses_perturbed_strips(row, col):
    # one symmetric off-diagonal pair, or one diagonal entry, times 1 + 2⁻⁴⁰
    A = poisson_strip(24, 4, 2).A_local.to_scipy().tolil()
    A[row, col] *= 1.0 + 2.0 ** -40
    A[col, row] = A[row, col]
    with pytest.raises(ValueError, match="Poisson strip"):
        CgOperator(A.tocsr()).factorization()


def test_block_operator_cached_per_block():
    d = shared_decomposition(("poisson", 8), _poisson_system(8),
                             nblocks=2, line=8)
    op1 = block_operator(d.blocks[0])
    op2 = block_operator(d.blocks[0])
    assert op1 is op2
    assert block_operator(d.blocks[1]) is not op1


def test_update_distance_work_buffer_bitwise():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(50)
    b = a + 1e-7 * rng.standard_normal(50)
    # the allocating reduction the work buffer replaced
    want = float(np.max(np.abs(b - a))) / float(np.max(np.abs(b)))
    assert update_distance(b, a, np.empty(50)) == want


# --------------------------------------------------------- size memoization


def _payload_zoo():
    arr = np.arange(12, dtype=float)
    addr = Address("host-a", 4)
    stub = Stub("worker", addr)
    return [
        None, True, 3, 2.5, "héllo", b"bytes",
        arr, [1, 2.0, "x"], (arr, arr), {"k": arr, 2: None},
        {1, 2, 3}, frozenset({4, 5}),
        addr, stub, [stub, stub, {"a": addr}],
        np.float64(1.5),
    ]


def test_fast_size_matches_legacy_for_payload_zoo():
    for obj in _payload_zoo():
        assert measured_size(obj) == 256 + _payload_size(obj, depth=0), \
            f"size mismatch for {obj!r}"


def test_frozen_dataclass_size_is_memoized():
    @dataclasses.dataclass(frozen=True)
    class Snapshot:
        name: str
        payload: tuple

    snap = Snapshot("worker", (1, 2.5))
    first = measured_size(snap)
    assert getattr(snap, "_measured_payload_cache", None) is not None
    assert measured_size(snap) == first
    # legacy walk agrees with the memoized charge
    assert first == 256 + _payload_size(snap, depth=0)


def test_slots_frozen_dataclass_sized_without_memo():
    # Stub/Address declare __slots__ (hot-path classes): no per-instance
    # memo can be planted, but every walk must still match the legacy
    # charge exactly — and must not raise trying to plant one.
    stub = Stub("worker", Address("host-a", 4))
    first = measured_size(stub)
    assert getattr(stub, "_measured_payload_cache", None) is None
    assert measured_size(stub) == first
    assert first == 256 + _payload_size(stub, depth=0)


def test_nonfrozen_dataclass_not_memoized():
    @dataclasses.dataclass
    class Mutable:
        text: str

    m = Mutable("abcd")
    s1 = measured_size(m)
    m.text = "abcdefgh"
    assert measured_size(m) == s1 + 4  # re-measured, not memoized


# ----------------------------------------------------- remote method table


def test_remote_method_table_matches_dir_walk():
    from repro.rmi import remote

    class Obj(RemoteObject):
        @remote
        def ping(self):
            return "pong"

        @remote
        def add(self, a, b):
            return a + b

        def local_only(self):
            return None

    legacy = sorted(
        name for name in dir(Obj)
        if not name.startswith("_")
        and callable(getattr(Obj, name, None))
        and is_remote(getattr(Obj, name))
    )
    assert sorted(remote_method_table(Obj)) == legacy == ["add", "ping"]
    # cached: same frozenset object on re-query
    assert remote_method_table(Obj) is remote_method_table(Obj)


# ------------------------------------------------------- run-level identity


def _run(**kw):
    from repro.exec import RunSpec

    return RunSpec(**kw).run()


def test_run_bitwise_identical_cold_vs_warm_caches():
    # the second run finds the decomposition, the block operators and
    # their scratch vectors as the first run left them
    kw = dict(n=16, peers=3, seed=11, convergence_threshold=1e-6)
    cold = _run(**kw)
    assert DECOMPOSITION_CACHE.misses == 1
    warm = _run(**kw)
    assert DECOMPOSITION_CACHE.misses == 1
    assert cold.converged
    assert warm == cold
    clear_caches()
    assert _run(**kw) == cold


def test_run_with_recovery_uses_shared_decomposition():
    kw = dict(n=16, peers=3, seed=5, disconnections=1,
              convergence_threshold=1e-4)
    cached = _run(**kw)
    assert cached.converged
    # one build serves all tasks plus the churn replacement
    assert DECOMPOSITION_CACHE.misses >= 1
    assert DECOMPOSITION_CACHE.hits >= kw["peers"]


def test_concurrent_apps_get_isolated_cache_entries():
    # Two different problem keys must never collide, even with identical
    # block structure.
    d_poisson = shared_decomposition(("poisson", 8), _poisson_system(8),
                                     nblocks=2, line=8)
    prob = Poisson2D.manufactured(8)
    A2 = (prob.A.to_scipy() * 2.0).tocsr()
    d_other = shared_decomposition(("scaled", 8), lambda: (A2, prob.b),
                                   nblocks=2, line=8)
    assert d_other is not d_poisson
    assert not np.array_equal(d_other.blocks[0].A_local.data,
                              d_poisson.blocks[0].A_local.data)
