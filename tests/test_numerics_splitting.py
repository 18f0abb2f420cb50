"""Tests for the block decomposition with overlap and the reference solvers."""

import numpy as np
import pytest

from repro.numerics import BlockDecomposition, Poisson2D, block_jacobi
from repro.util.rng import RngTree

from tests.oracles.chaotic_reference import (ChaoticDivergence,
                                             chaotic_block_jacobi)


def make_problem(n=8):
    return Poisson2D.manufactured(n)


# ----------------------------------------------------------------- decomposition


def test_decomposition_partitions_ownership():
    prob = make_problem(8)
    d = BlockDecomposition(prob.A, prob.b, nblocks=3, line=8, overlap=0)
    covered = np.zeros(prob.size, dtype=bool)
    for blk in d.blocks:
        assert blk.own_start % 8 == 0 and blk.own_end % 8 == 0
        assert not covered[blk.own_start : blk.own_end].any()
        covered[blk.own_start : blk.own_end] = True
    assert covered.all()


def test_decomposition_extended_ranges_with_overlap():
    prob = make_problem(9)
    d = BlockDecomposition(prob.A, prob.b, nblocks=3, line=9, overlap=1)
    first, mid, last = d.blocks
    assert first.ext_start == 0 and first.ext_end == first.own_end + 9
    assert mid.ext_start == mid.own_start - 9 and mid.ext_end == mid.own_end + 9
    assert last.ext_end == prob.size and last.ext_start == last.own_start - 9


def test_exchange_volume_constant_in_overlap():
    """The paper's claim: exchanged data per neighbour stays n components."""
    prob = make_problem(12)
    volumes = []
    for o in [0, 1, 2]:
        d = BlockDecomposition(prob.A, prob.b, nblocks=4, line=12, overlap=o)
        volumes.append([d.exchange_volume(k) for k in range(4)])
    assert volumes[0] == volumes[1] == volumes[2]
    # inner blocks send one grid line (n=12) to each of two neighbours
    assert volumes[0][1] == 24 and volumes[0][2] == 24
    # end blocks have a single neighbour
    assert volumes[0][0] == 12 and volumes[0][3] == 12


def test_ext_cols_are_one_grid_line_per_side():
    prob = make_problem(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=2, line=10, overlap=2)
    top, bottom = d.blocks
    # block 0 extended region ends at own_end+2 lines; it needs the line below
    assert top.ext_cols.size == 10
    assert np.array_equal(top.ext_cols, np.arange(top.ext_end, top.ext_end + 10))
    assert bottom.ext_cols.size == 10
    assert np.array_equal(
        bottom.ext_cols, np.arange(bottom.ext_start - 10, bottom.ext_start)
    )


def test_send_map_matches_ext_sources():
    prob = make_problem(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=5, line=10, overlap=0)
    for blk in d.blocks:
        for nb, positions in blk.ext_sources.items():
            needed = blk.ext_cols[positions]
            sent = d.blocks[nb].send_map[blk.index]
            assert np.array_equal(np.sort(needed), np.sort(sent))
            own = d.blocks[nb]
            assert np.all((sent >= own.own_start) & (sent < own.own_end))


def test_neighbours_are_adjacent_blocks():
    prob = make_problem(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=5, line=10, overlap=0)
    assert d.neighbours(0) == [1]
    assert d.neighbours(2) == [1, 3]
    assert d.neighbours(4) == [3]


def test_single_block_has_no_neighbours():
    prob = make_problem(6)
    d = BlockDecomposition(prob.A, prob.b, nblocks=1, line=6)
    assert d.neighbours(0) == []
    assert d.blocks[0].ext_cols.size == 0
    assert d.exchange_volume(0) == 0


def test_values_to_send_extracts_owned_line():
    prob = make_problem(6)
    d = BlockDecomposition(prob.A, prob.b, nblocks=2, line=6, overlap=0)
    blk = d.blocks[0]
    x_local = np.arange(blk.n_ext, dtype=float)
    vals = blk.values_to_send(x_local, 1)
    # block 1 needs block 0's last grid line
    expect = x_local[(blk.own_end - 6 - blk.ext_start):(blk.own_end - blk.ext_start)]
    assert np.array_equal(vals, expect)


def test_assemble_roundtrip_with_overlap():
    prob = make_problem(8)
    d = BlockDecomposition(prob.A, prob.b, nblocks=2, line=8, overlap=2)
    ref = prob.solve_direct()
    locals_ = [ref[blk.ext_start : blk.ext_end].copy() for blk in d.blocks]
    assert np.allclose(d.assemble(locals_), ref)


def test_local_rhs_consistency_at_solution():
    """At the exact solution, every local system is satisfied."""
    prob = make_problem(8)
    ref = prob.solve_direct()
    for o in [0, 1]:
        d = BlockDecomposition(prob.A, prob.b, nblocks=4, line=8, overlap=o)
        for blk in d.blocks:
            ext_vals = ref[blk.ext_cols]
            rhs = d.local_rhs(blk.index, ext_vals)
            x_local = ref[blk.ext_start : blk.ext_end]
            assert np.allclose(blk.A_local @ x_local, rhs, atol=1e-8)


def test_decomposition_validation():
    prob = make_problem(6)
    with pytest.raises(ValueError):  # not multiple of line
        BlockDecomposition(prob.A, prob.b, nblocks=2, line=5)
    with pytest.raises(ValueError):  # too many blocks
        BlockDecomposition(prob.A, prob.b, nblocks=7, line=6)
    with pytest.raises(ValueError):  # negative overlap
        BlockDecomposition(prob.A, prob.b, nblocks=2, line=6, overlap=-1)
    with pytest.raises(ValueError):  # overlap too large for strip width
        BlockDecomposition(prob.A, prob.b, nblocks=3, line=6, overlap=2)
    with pytest.raises(ValueError):  # b shape
        BlockDecomposition(prob.A, np.zeros(5), nblocks=2, line=6)
    import scipy.sparse as sp

    with pytest.raises(ValueError):  # non-square
        BlockDecomposition(sp.csr_matrix(np.ones((4, 6))), np.zeros(4), nblocks=1)


def test_assemble_validation():
    prob = make_problem(6)
    d = BlockDecomposition(prob.A, prob.b, nblocks=2, line=6)
    with pytest.raises(ValueError):
        d.assemble([np.zeros(3)])
    with pytest.raises(ValueError):
        d.assemble([np.zeros(3), np.zeros(3)])


def test_local_rhs_shape_validation():
    prob = make_problem(6)
    d = BlockDecomposition(prob.A, prob.b, nblocks=2, line=6)
    with pytest.raises(ValueError):
        d.local_rhs(0, np.zeros(99))


# --------------------------------------------------------------- block jacobi


def test_block_jacobi_converges_to_direct_solution():
    prob = make_problem(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=4, line=10, overlap=0)
    result = block_jacobi(d, tol=1e-9)
    assert result.converged
    ref = prob.solve_direct()
    assert np.allclose(result.x, ref, atol=1e-6)
    assert result.flops_total > 0
    assert result.residual_norm <= 1e-9


def test_block_jacobi_single_block_is_direct_solve():
    prob = make_problem(8)
    d = BlockDecomposition(prob.A, prob.b, nblocks=1, line=8)
    result = block_jacobi(d, tol=1e-10)
    assert result.converged
    assert result.outer_iterations <= 2


def test_overlap_reduces_outer_iterations():
    """Paper §6: overlapping may dramatically reduce iteration count."""
    prob = make_problem(16)
    iters = {}
    for o in [0, 2]:
        d = BlockDecomposition(prob.A, prob.b, nblocks=4, line=16, overlap=o)
        result = block_jacobi(d, tol=1e-8)
        assert result.converged
        iters[o] = result.outer_iterations
    assert iters[2] < iters[0]


def test_more_blocks_means_more_outer_iterations():
    prob = make_problem(16)
    iters = []
    for nb in [2, 8]:
        d = BlockDecomposition(prob.A, prob.b, nblocks=nb, line=16)
        iters.append(block_jacobi(d, tol=1e-8).outer_iterations)
    assert iters[0] < iters[1]


def test_block_jacobi_budget_exhaustion():
    prob = make_problem(12)
    d = BlockDecomposition(prob.A, prob.b, nblocks=6, line=12)
    result = block_jacobi(d, tol=1e-12, max_outer=2)
    assert not result.converged
    assert result.outer_iterations == 2
    assert result.residual_norm > 1e-12


# ------------------------------------------------------------ chaotic jacobi


def test_chaotic_relaxation_converges_to_same_fixed_point():
    prob = make_problem(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=4, line=10, overlap=0)
    result = chaotic_block_jacobi(
        d, rng=RngTree(7), tol=1e-9, activation_probability=0.5, max_delay=3
    )
    assert result.converged
    ref = prob.solve_direct()
    assert np.allclose(result.x, ref, atol=1e-6)


def test_chaotic_relaxation_with_overlap_converges():
    prob = make_problem(12)
    d = BlockDecomposition(prob.A, prob.b, nblocks=3, line=12, overlap=1)
    result = chaotic_block_jacobi(d, rng=RngTree(3), tol=1e-8)
    assert result.converged
    assert np.allclose(result.x, prob.solve_direct(), atol=1e-5)


def test_chaotic_needs_more_steps_than_sync():
    prob = make_problem(10)
    d1 = BlockDecomposition(prob.A, prob.b, nblocks=4, line=10)
    sync = block_jacobi(d1, tol=1e-8)
    d2 = BlockDecomposition(prob.A, prob.b, nblocks=4, line=10)
    chaotic = chaotic_block_jacobi(
        d2, rng=RngTree(11), tol=1e-8, activation_probability=0.4, max_delay=4
    )
    assert chaotic.converged
    assert chaotic.outer_iterations >= sync.outer_iterations


def test_chaotic_determinism_given_seed():
    prob = make_problem(8)
    runs = []
    for _ in range(2):
        d = BlockDecomposition(prob.A, prob.b, nblocks=4, line=8)
        r = chaotic_block_jacobi(d, rng=RngTree(5), tol=1e-8)
        runs.append((r.outer_iterations, r.residual_norm))
    assert runs[0] == runs[1]


def test_chaotic_validation():
    prob = make_problem(6)
    d = BlockDecomposition(prob.A, prob.b, nblocks=2, line=6)
    with pytest.raises(ValueError):
        chaotic_block_jacobi(d, rng=RngTree(0), activation_probability=0.0)
    with pytest.raises(ValueError):
        chaotic_block_jacobi(d, rng=RngTree(0), max_delay=-1)
    with pytest.raises(ChaoticDivergence):
        chaotic_block_jacobi(d, rng=RngTree(0), tol=1e-14, max_steps=1, raise_on_fail=True)


# ------------------------------------------------- local rhs, coupled rows


def _app_systems():
    """Every application's global system at n = 10: Poisson (also Jacobi's),
    the heat plate, convection-diffusion and the nonlinear problem."""
    from repro.apps.nonlinear_task import _manufactured_system
    from repro.numerics.convdiff import ConvectionDiffusion2D

    manufactured, plate = Poisson2D.manufactured(10), Poisson2D.heat_plate(10)
    convdiff = ConvectionDiffusion2D(10)
    A, b, _ = _manufactured_system(10, 1.0)
    return {"poisson": (manufactured.A, manufactured.b),
            "heat": (plate.A, plate.b),
            "convdiff": (convdiff.A, convdiff.b),
            "nonlinear": (A, b)}


@pytest.mark.parametrize("overlap", [0, 1])
@pytest.mark.parametrize("app", ["poisson", "heat", "convdiff", "nonlinear"])
def test_local_rhs_is_the_full_product_byte_for_byte(app, overlap):
    """Rebuilding only the coupled rows gives ``b_local - B_coupling @ ext``
    bit for bit, signed zeros included."""
    A, b = _app_systems()[app]
    d = BlockDecomposition(A, b, nblocks=4, line=10, overlap=overlap)
    rng = np.random.default_rng(11)
    for k, blk in enumerate(d.blocks):
        for trial in range(4):
            ext = rng.standard_normal(blk.ext_cols.size)
            if trial:
                zeros = rng.random(ext.size) < 0.5
                ext[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
            expected = blk.b_local - blk.B_coupling @ ext
            assert d.local_rhs(k, ext).tobytes() == expected.tobytes()
