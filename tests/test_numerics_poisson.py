"""Tests for Poisson assembly, M-matrix theory and the CG solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.numerics import (
    Poisson2D,
    async_convergence_radius,
    conjugate_gradient,
    is_m_matrix,
    is_weak_regular_splitting,
    poisson_matrix,
    spectral_radius,
    update_distance,
)
from repro.numerics.matrix import is_z_matrix
from tests.oracles.numerics_reference import (
    block_jacobi_iteration_matrix,
    discretization_error,
    jacobi_iteration_matrix,
    relative_residual,
)


# --------------------------------------------------------------------- poisson


def test_poisson_matrix_structure():
    n = 4
    A = poisson_matrix(n, scaled=False).toarray()
    assert A.shape == (16, 16)
    assert np.allclose(np.diag(A), 4.0)
    # 5-diagonal: nonzeros only on offsets 0, ±1, ±n
    for offset in range(-15, 16):
        diag = np.diag(A, offset)
        if offset in (0, 1, -1, n, -n):
            continue
        assert np.all(diag == 0.0), f"unexpected nonzeros at offset {offset}"
    # no horizontal wrap-around between grid rows
    assert A[n - 1, n] == 0.0
    assert A[n, n - 1] == 0.0


def test_poisson_matrix_symmetry_and_scaling():
    A = poisson_matrix(6, scaled=True).to_scipy()
    assert (A - A.T).nnz == 0
    h2 = (6 + 1.0) ** 2
    assert A[0, 0] == pytest.approx(4.0 * h2)


def test_poisson_matrix_is_m_matrix():
    A = poisson_matrix(4, scaled=False)
    assert is_z_matrix(A)
    assert is_m_matrix(A)


def test_poisson_matrix_validation():
    with pytest.raises(ValueError):
        poisson_matrix(0)


def test_manufactured_solution_convergence_order():
    """Discretization error of the manufactured problem shrinks like h^2."""
    errors = []
    for n in [8, 16, 32]:
        prob = Poisson2D.manufactured(n)
        x = prob.solve_direct()
        errors.append(discretization_error(n, x))
    # halving h should cut the error by ~4
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.3)


def test_direct_solution_residual_tiny():
    prob = Poisson2D.manufactured(10)
    x = prob.solve_direct()
    assert prob.residual_norm(x) < 1e-12


def test_heat_plate_solution_positive_interior():
    prob = Poisson2D.heat_plate(8)
    x = prob.solve_direct()
    assert (x > 0).all()  # M-matrix inverse positivity: heat stays positive


def test_problem_size_matches_paper_definition():
    # paper: n=2000 -> problem size 4,000,000 (n^2)
    prob = Poisson2D.manufactured(7)
    assert prob.size == 49


# --------------------------------------------------------------- matrix theory


def test_is_m_matrix_counterexamples():
    assert not is_m_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))  # positive off-diag
    assert not is_m_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # zero diagonal
    assert not is_m_matrix(np.array([[1.0, -3.0], [-3.0, 1.0]]))  # inverse negative
    assert not is_m_matrix(np.ones((2, 3)))  # not square
    singular = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert not is_m_matrix(singular)


def test_jacobi_splitting_is_weak_regular_for_poisson():
    A = poisson_matrix(5, scaled=False)
    M = sp.diags(A.to_scipy().diagonal()).toarray()
    assert is_weak_regular_splitting(A, M)


def test_weak_regular_splitting_counterexample():
    A = np.array([[2.0, -1.0], [-1.0, 2.0]])
    M = np.array([[1.0, 1.0], [1.0, -1.0]])  # M^{-1} has negative entries
    assert not is_weak_regular_splitting(A, M)
    with pytest.raises(ValueError):
        is_weak_regular_splitting(A, np.eye(3))


def test_jacobi_iteration_matrix_radius_below_one():
    A = poisson_matrix(6, scaled=False)
    T = jacobi_iteration_matrix(A)
    rho = spectral_radius(T)
    assert 0.9 < rho < 1.0  # classic: cos(pi*h), close to but below 1
    # async condition: rho(|T|) = rho(T) here since T >= 0 off-diagonal
    assert async_convergence_radius(T) == pytest.approx(rho, rel=1e-8)


def test_jacobi_iteration_matrix_needs_nonzero_diagonal():
    with pytest.raises(ValueError):
        jacobi_iteration_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))


def test_block_jacobi_radius_beats_point_jacobi():
    """Bigger blocks -> smaller spectral radius -> fewer iterations."""
    n = 6
    A = poisson_matrix(n, scaled=False)
    T_point = jacobi_iteration_matrix(A)
    half = n * n // 2
    T_block = block_jacobi_iteration_matrix(
        A, [np.arange(0, half), np.arange(half, n * n)]
    )
    assert spectral_radius(T_block) < spectral_radius(T_point)


def test_block_jacobi_iteration_matrix_validation():
    A = poisson_matrix(3, scaled=False)
    with pytest.raises(ValueError, match="overlap"):
        block_jacobi_iteration_matrix(A, [np.arange(0, 5), np.arange(4, 9)])
    with pytest.raises(ValueError, match="cover"):
        block_jacobi_iteration_matrix(A, [np.arange(0, 5)])


def test_spectral_radius_power_method_matches_dense():
    A = poisson_matrix(5, scaled=False)
    T = np.abs(jacobi_iteration_matrix(A))
    exact = float(np.abs(np.linalg.eigvals(T)).max())
    sparse_T = sp.csr_matrix(T)
    assert spectral_radius(sparse_T) == pytest.approx(exact, rel=1e-6)


def test_spectral_radius_zero_matrix():
    assert spectral_radius(sp.csr_matrix((5, 5))) == 0.0


# -------------------------------------------------------------------------- cg


def test_cg_solves_poisson_exactly():
    prob = Poisson2D.manufactured(12)
    result = conjugate_gradient(prob.A, prob.b, tol=1e-12)
    assert result.converged
    ref = prob.solve_direct()
    assert np.allclose(result.x, ref, atol=1e-8)
    assert result.iterations > 0
    assert result.flops > 0


def test_cg_one_step_on_eigenvector_rhs():
    """The manufactured RHS is a discrete Laplacian eigenvector, so CG must
    converge in a single iteration — a sharp correctness check."""
    prob = Poisson2D.manufactured(12)
    result = conjugate_gradient(prob.A, prob.b, tol=1e-10)
    assert result.converged and result.iterations == 1


def test_cg_warm_start_converges_faster():
    # heat_plate's constant source is NOT an eigenvector: CG takes many steps
    prob = Poisson2D.heat_plate(12)
    ref = prob.solve_direct()
    cold = conjugate_gradient(prob.A, prob.b, tol=1e-10)
    warm = conjugate_gradient(prob.A, prob.b, x0=ref + 1e-8, tol=1e-10)
    assert cold.iterations > 5
    assert warm.iterations < cold.iterations


def test_cg_zero_rhs_returns_zero():
    A = poisson_matrix(5)
    result = conjugate_gradient(A, np.zeros(25), tol=1e-12)
    assert result.converged
    assert np.allclose(result.x, 0.0)
    assert result.iterations == 0


def test_cg_max_iter_and_raise():
    prob = Poisson2D.heat_plate(16)
    result = conjugate_gradient(prob.A, prob.b, tol=1e-14, max_iter=2)
    assert not result.converged
    assert result.iterations == 2
    assert relative_residual(prob.A, result.x, prob.b) > 1e-14


def test_cg_validation_errors():
    A = poisson_matrix(4)
    with pytest.raises(ValueError):
        conjugate_gradient(A, np.zeros(7))
    with pytest.raises(ValueError):
        conjugate_gradient(A, np.zeros(16), x0=np.zeros(3))
    rect = sp.csr_matrix(np.ones((3, 4)))
    with pytest.raises(ValueError):
        conjugate_gradient(rect, np.zeros(3))


def test_cg_dense_input_accepted():
    A = poisson_matrix(4).toarray()
    b = np.ones(16)
    result = conjugate_gradient(A, b, tol=1e-10)
    assert result.converged


def test_cg_non_spd_breakdown_detected():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    b = np.array([1.0, -1.0])
    result = conjugate_gradient(A, b, tol=1e-12)
    # either it happens to solve it or it reports breakdown; never diverge
    assert np.all(np.isfinite(result.x))


# ------------------------------------------------------------------- residuals


def test_relative_residual_and_update_distance():
    A = sp.identity(3, format="csr")
    b = np.array([1.0, 2.0, 2.0])
    assert relative_residual(A, b, b) == 0.0
    assert relative_residual(A, np.zeros(3), b) == pytest.approx(1.0)
    assert update_distance(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                           np.empty(2)) == pytest.approx(0.5)
    assert update_distance(np.array([0.0]), np.array([0.0]), np.empty(1)) == 0.0
    assert update_distance(np.array([2.0]), np.array([1.0]), np.empty(1)) == 0.5


def test_spectral_radius_general_sparse_uses_arpack():
    """A large sparse matrix with negative entries takes the ARPACK path."""
    rng = np.random.default_rng(3)
    n = 2000
    # sparse random matrix with mixed signs, scaled to a known radius regime
    density_rows = rng.integers(0, n, size=6000)
    density_cols = rng.integers(0, n, size=6000)
    values = rng.normal(size=6000)
    T = sp.coo_matrix((values, (density_rows, density_cols)),
                      shape=(n, n)).tocsr()
    T = T * (0.3 / np.abs(values).max())
    rho = spectral_radius(T)
    assert np.isfinite(rho) and rho >= 0
    # cross-check against ARPACK directly, pinning the start vector so the
    # reference does not depend on ARPACK's process-global random state
    from scipy.sparse.linalg import eigs

    v0 = np.random.default_rng(0).random(n) + 0.1
    ref = float(np.abs(
        eigs(T, k=1, which="LM", return_eigenvectors=False, v0=v0)
    ).max())
    assert rho == pytest.approx(ref, rel=1e-6)


def test_spectral_radius_tiny_general_matrix_dense_fallback():
    T = sp.csr_matrix(np.array([[0.0, -0.5], [0.5, 0.0]]))
    assert spectral_radius(T) == pytest.approx(0.5, rel=1e-9)


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(ValueError):
        spectral_radius(sp.csr_matrix(np.ones((2, 3))))
