"""Tests for BiCGSTAB, the convection–diffusion operator, and its app."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps import make_convdiff_app
from repro.numerics import BlockDecomposition, async_certificate
from repro.numerics.bicgstab import bicgstab
from repro.numerics.convdiff import (
    ConvectionDiffusion2D,
    convection_diffusion_matrix,
)
from repro.numerics.matrix import is_m_matrix, is_z_matrix
from repro.checkpoint import FixedPolicy
from repro.p2p import P2PConfig, build_cluster, launch_application

from tests.helpers import (
    assemble_strip_solution,
    collect_solution,
    run_until_done,
)

FAST = P2PConfig(
    heartbeat_period=0.5, heartbeat_timeout=2.0, monitor_period=0.5,
    call_timeout=2.0, bootstrap_retry_delay=0.5,
    min_iteration_time=0.01,
)
CKPT = FixedPolicy(count=3, frequency=5)


# ------------------------------------------------------------------- bicgstab


def test_bicgstab_solves_nonsymmetric_system():
    problem = ConvectionDiffusion2D(12, eps=0.1, wx=2.0, wy=1.0)
    result = bicgstab(problem.A, problem.b, tol=1e-12)
    assert result.converged
    assert np.allclose(result.x, problem.u_star, atol=1e-6)
    assert result.flops > 0


def test_bicgstab_matches_cg_on_symmetric_system():
    from repro.numerics import Poisson2D, conjugate_gradient

    prob = Poisson2D.heat_plate(10)
    bi = bicgstab(prob.A, prob.b, tol=1e-11)
    cg = conjugate_gradient(prob.A, prob.b, tol=1e-11)
    assert bi.converged and cg.converged
    assert np.allclose(bi.x, cg.x, atol=1e-7)


def test_bicgstab_zero_rhs():
    A = convection_diffusion_matrix(6, eps=1.0, wx=1.0)
    result = bicgstab(A, np.zeros(36), tol=1e-12)
    assert result.converged and result.iterations == 0
    assert np.allclose(result.x, 0.0)


def test_bicgstab_budget_and_validation():
    problem = ConvectionDiffusion2D(10, eps=0.05, wx=3.0, wy=2.0)
    with pytest.raises(ValueError):
        bicgstab(problem.A, np.zeros(7))
    with pytest.raises(ValueError):
        bicgstab(sp.csr_matrix(np.ones((2, 3))), np.zeros(2))


# ------------------------------------------------------------------- operator


def test_convdiff_operator_structure():
    A = convection_diffusion_matrix(5, eps=1.0, wx=2.0, wy=-1.0)
    assert A.shape == (25, 25)
    assert is_z_matrix(A)
    assert is_m_matrix(A)
    # nonsymmetric as soon as there is convection
    assert (A != A.T).nnz > 0
    # pure diffusion with eps=1 reduces to the scaled Poisson matrix
    from repro.numerics import poisson_matrix

    D = convection_diffusion_matrix(5, eps=1.0)
    assert abs(D - poisson_matrix(5, scaled=True).to_scipy()).nnz == 0


def test_convdiff_upwind_stays_m_matrix_at_high_peclet():
    """The point of upwinding: even convection-dominated (tiny eps), the
    operator keeps the M-matrix sign pattern."""
    A = convection_diffusion_matrix(6, eps=1e-3, wx=5.0, wy=5.0)
    assert is_z_matrix(A)
    assert is_m_matrix(A)


def test_convdiff_validation():
    with pytest.raises(ValueError):
        convection_diffusion_matrix(0)
    with pytest.raises(ValueError):
        convection_diffusion_matrix(5, eps=0.0)


def test_convdiff_manufactured_solution_is_exact():
    problem = ConvectionDiffusion2D(8, eps=0.3, wx=1.5, wy=-0.5)
    x = problem.solve_direct()
    assert np.allclose(x, problem.u_star, atol=1e-10)
    assert problem.residual_norm(problem.u_star) < 1e-12


def test_convdiff_decomposition_is_async_certified():
    problem = ConvectionDiffusion2D(8, eps=0.5, wx=1.0, wy=0.5)
    d = BlockDecomposition(problem.A, problem.b, nblocks=4, line=8)
    cert = async_certificate(d)
    assert cert.m_matrix
    assert cert.async_convergent


# ------------------------------------------------------------------------ app


def test_convdiff_app_converges_on_runtime():
    n, peers = 12, 3
    cluster = build_cluster(n_daemons=5, n_superpeers=2, seed=43, config=FAST, checkpoint=CKPT)
    app = make_convdiff_app("cd", n=n, num_tasks=peers, eps=0.5, wx=1.0,
                            wy=0.5, convergence_threshold=1e-9)
    spawner = launch_application(cluster, app)
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    problem = ConvectionDiffusion2D(n, eps=0.5, wx=1.0, wy=0.5)
    assert np.max(np.abs(x - problem.u_star)) < 1e-4


def test_convdiff_app_survives_failure():
    n, peers = 12, 3
    cluster = build_cluster(n_daemons=6, n_superpeers=2, seed=47, config=FAST, checkpoint=CKPT)
    app = make_convdiff_app("cd", n=n, num_tasks=peers, eps=0.3, wx=2.0,
                            convergence_threshold=1e-9)
    spawner = launch_application(cluster, app)
    sim = cluster.sim
    sim.run(until=0.5)
    victim_name = spawner.register.slot(0).daemon_id.rsplit("#", 1)[0]
    victim = next(h for h in cluster.testbed.daemon_hosts
                  if h.name == victim_name)
    victim.fail(cause="test")
    assert run_until_done(cluster, spawner, horizon=900.0)
    frags = collect_solution(cluster, spawner)
    x = assemble_strip_solution(frags, n * n)
    problem = ConvectionDiffusion2D(n, eps=0.3, wx=2.0, wy=0.5)
    assert np.max(np.abs(x - problem.u_star)) < 1e-4
