"""Tests tying the §6 convergence theory to the actual solvers.

The paper's whole design rests on one mathematical fact: for M-matrix
splittings, chaotic (asynchronous) iterations converge.  These tests
compute the certificate ρ(|T|) for concrete decompositions and pair it
with the chaotic reference solver — in both directions.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.numerics import BlockDecomposition, Poisson2D
from repro.numerics.theory import (
    async_certificate,
    block_iteration_matrix,
)
from repro.util.rng import RngTree

from tests.oracles.chaotic_reference import chaotic_block_jacobi


def test_poisson_decomposition_is_certified():
    prob = Poisson2D.manufactured(10)
    d = BlockDecomposition(prob.A, prob.b, nblocks=5, line=10)
    cert = async_certificate(d)
    assert cert.m_matrix
    assert cert.weak_regular
    assert cert.async_convergent and cert.rho < 1.0
    # for this nonnegative-off-diagonal splitting, |T| = T
    assert cert.rho_abs == pytest.approx(cert.rho, rel=1e-8)
    assert "ASYNC-SAFE" in str(cert)


def test_certificate_radius_shrinks_with_fewer_blocks():
    prob = Poisson2D.manufactured(12)
    rhos = []
    for nb in (6, 2):
        d = BlockDecomposition(prob.A, prob.b, nblocks=nb, line=12)
        rhos.append(async_certificate(d).rho_abs)
    assert rhos[1] < rhos[0] < 1.0


def test_certified_system_converges_chaotically():
    prob = Poisson2D.manufactured(8)
    d = BlockDecomposition(prob.A, prob.b, nblocks=4, line=8)
    assert async_certificate(d).async_convergent
    result = chaotic_block_jacobi(d, rng=RngTree(1), tol=1e-8,
                                  activation_probability=0.4, max_delay=4)
    assert result.converged


def test_uncertified_counterexample_diverges_chaotically():
    """A system violating the M-matrix hypothesis with rho(|T|) > 1: the
    synchronous-looking spectral radius can deceive, the chaotic iteration
    blows up — exactly why the paper restricts to M-matrices."""
    # 2x2 blocks with large positive off-diagonal coupling: not a Z-matrix
    n = 4
    A = np.array([
        [1.0, 0.0, 0.9, -0.9],
        [0.0, 1.0, -0.9, 0.9],
        [0.9, -0.9, 1.0, 0.0],
        [-0.9, 0.9, 0.0, 1.0],
    ])
    As = sp.csr_matrix(A)
    b = np.ones(n)
    d = BlockDecomposition(As, b, nblocks=2, line=1)
    cert = async_certificate(d)
    assert not cert.m_matrix
    assert cert.rho_abs > 1.0
    # the synchronous radius happens to also certify failure here — the
    # interesting regime is rho(T) < 1 < rho(|T|); build one explicitly:
    B = np.array([
        [1.0, 0.0, -0.55, 0.55],
        [0.0, 1.0, 0.55, -0.55],
        [0.55, -0.55, 1.0, 0.0],
        [-0.55, 0.55, 0.0, 1.0],
    ])
    dB = BlockDecomposition(sp.csr_matrix(B), b, nblocks=2, line=1)
    certB = async_certificate(dB)
    if certB.rho < 1.0 and not certB.async_convergent:
        # sync converges, chaos (with enough delay) must be able to diverge
        result = chaotic_block_jacobi(
            dB, rng=RngTree(3), tol=1e-10, max_steps=200,
            activation_probability=0.5, max_delay=6,
        )
        final = result.residual_norm
        assert not result.converged or final > 1e-10


def test_block_iteration_matrix_shape_and_structure():
    prob = Poisson2D.manufactured(6)
    d = BlockDecomposition(prob.A, prob.b, nblocks=3, line=6)
    T = block_iteration_matrix(d)
    assert T.shape == (36, 36)
    # rows inside a block are annihilated against their own block columns
    blk = d.blocks[1]
    sl = slice(blk.own_start, blk.own_end)
    assert np.allclose(T[sl, sl], 0.0, atol=1e-10)


def test_certificate_size_guard():
    prob = Poisson2D.manufactured(60)  # 3600 unknowns: too large for dense
    d = BlockDecomposition(prob.A, prob.b, nblocks=4, line=60)
    with pytest.raises(ValueError, match="too.*large|dense"):
        async_certificate(d)
