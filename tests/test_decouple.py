import numpy as np
import pytest

from spdominance.certify import MatrixPolytope, SPDominanceCertificate
from spdominance.decouple import (CHANG_RESIDUAL_TOL, build_decoupling,
                                  chang_residuals, epsilon_star,
                                  full_system_matrix, reduced_model,
                                  solve_chang_lti)
from spdominance.errors import (InfeasibleAtFloor, NoConvergence,
                                NonpositiveEps, SingularD)

A_SPRING = np.array([[0.0, 1.0], [2.0, 0.0]])
B_SPRING = np.array([[0.0], [-5.0]])
C_SPRING = np.array([[0.0, 1.0]])
D_SPRING = np.array([[-1.0]])


def spring_cert(sigma_r=0.01, sigma_f=1.0):
    return SPDominanceCertificate(
        P_r=[[-5.1987, 3.6260], [3.6260, 6.1987]], P_f=[[1.0]],
        lambda_r=2.0, lambda_f=0.5, sigma_r=sigma_r, sigma_f=sigma_f, p=1)


def random_stable_sp_system(rng, n_r=2, n_f=2):
    A = rng.standard_normal((n_r, n_r))
    B = rng.standard_normal((n_r, n_f))
    C = rng.standard_normal((n_f, n_r))
    D = rng.standard_normal((n_f, n_f))
    D = -(D @ D.T) - np.eye(n_f)  # stable, well-conditioned fast block
    return A, B, C, D


def test_reduced_model_no_coupling():
    A = np.diag([-1.0, -2.0])
    L0, H0, A0 = reduced_model(A, np.zeros((2, 1)), np.zeros((1, 2)), [[-1.0]])
    assert np.allclose(A0, A)
    assert np.allclose(H0, 0)


def test_reduced_model_spring():
    L0, H0, A0 = reduced_model(A_SPRING, B_SPRING, C_SPRING, D_SPRING)
    assert np.allclose(L0, [[0.0, -1.0]])
    assert np.allclose(A0, [[0.0, 1.0], [2.0, -5.0]])


def test_reduced_model_identity_blocks():
    L0, H0, A0 = reduced_model(np.zeros((2, 2)), np.eye(2), np.eye(2), -np.eye(2))
    assert np.allclose(A0, np.eye(2))


def test_reduced_model_singular_d():
    with pytest.raises(SingularD):
        reduced_model(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))


def test_chang_scalar_quadratic_root():
    # fixed point of 0.1 L^2 - L - 1 = 0 nearest L0 = -1
    L = solve_chang_lti([[0.0]], [[1.0]], [[1.0]], [[-1.0]], 0.1)
    expect = (1.0 - np.sqrt(1.4)) / 0.2
    assert L[0, 0] == pytest.approx(expect, abs=1e-10)


def test_chang_small_eps_approaches_limit():
    L0, _, _ = reduced_model(A_SPRING, B_SPRING, C_SPRING, D_SPRING)
    L = solve_chang_lti(A_SPRING, B_SPRING, C_SPRING, D_SPRING, 1e-8)
    assert np.abs(L - L0).max() < 1e-6


def test_chang_no_slow_feedback_matches_linear_solve():
    # with B = 0 the fixed point solves D L - eps L A = C; compare against a
    # direct Kronecker linear solve of the vectorized equation
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    C = rng.standard_normal((2, 3))
    D = -(np.eye(2) * 2.0) + 0.1 * rng.standard_normal((2, 2))
    eps = 0.05
    B = np.zeros((3, 2))
    L = solve_chang_lti(A, B, C, D, eps)
    K = np.kron(np.eye(3), D) - eps * np.kron(A.T, np.eye(2))
    L_direct = np.linalg.solve(K, C.flatten(order="F")).reshape((2, 3), order="F")
    assert np.allclose(L, L_direct, atol=1e-9)


def test_chang_diverges_for_large_eps():
    with pytest.raises(NoConvergence):
        solve_chang_lti([[0.0]], [[1.0]], [[1.0]], [[-1.0]], 50.0)


def test_chang_rejects_nonpositive_eps():
    with pytest.raises(NonpositiveEps):
        solve_chang_lti([[0.0]], [[1.0]], [[1.0]], [[-1.0]], 0.0)


def test_build_decoupling_trivial():
    dec = build_decoupling(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                           np.zeros((1, 2)), [[-4.0]], 0.01)
    assert np.allclose(dec.T, np.eye(3))
    assert np.allclose(dec.slow_block, np.diag([-1.0, -2.0]))
    assert np.allclose(dec.fast_block, [[-400.0]])


def test_build_decoupling_spring_block_diagonalizes():
    dec = build_decoupling(A_SPRING, B_SPRING, C_SPRING, D_SPRING, 0.01)
    M = full_system_matrix(A_SPRING, B_SPRING, C_SPRING, D_SPRING, 0.01)
    Md = dec.T_inv @ M @ dec.T
    assert np.linalg.norm(Md[:2, 2:]) <= 1e-8
    assert np.linalg.norm(Md[2:, :2]) <= 1e-8
    assert np.linalg.det(dec.T_inv) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(dec.T @ dec.T_inv - np.eye(3)) <= 1e-9


def test_build_decoupling_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(20):
        A, B, C, D = random_stable_sp_system(rng)
        dec = build_decoupling(A, B, C, D, 0.01)
        n = A.shape[0] + D.shape[0]
        assert np.linalg.det(dec.T_inv) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(dec.T @ dec.T_inv - np.eye(n)) <= 1e-9
        M = full_system_matrix(A, B, C, D, 0.01)
        Md = dec.T_inv @ M @ dec.T
        n_r = A.shape[0]
        assert max(np.linalg.norm(Md[:n_r, n_r:]), np.linalg.norm(Md[n_r:, :n_r])) <= 1e-8
        r_l, r_h = chang_residuals(A, B, C, D, dec.L, dec.H, 0.01)
        assert max(r_l, r_h) <= 1e-10 * max(1.0, np.linalg.norm(C), np.linalg.norm(B))


def test_solve_chang_lti_returns_l_only():
    A, B, C, D = random_stable_sp_system(np.random.default_rng(5), n_r=3, n_f=2)
    L = solve_chang_lti(A, B, C, D, 0.01)
    assert isinstance(L, np.ndarray) and L.shape == (2, 3)


@pytest.mark.parametrize("seed, eps", [(23, 0.26), (32, 0.48), (8, 0.94)])
def test_build_decoupling_where_h_fixed_point_stalls(seed, eps):
    # L converges here, but a fixed-point iteration for H stalls or grows;
    # the linear solve for H needs no contraction
    A, B, C, D = random_stable_sp_system(np.random.default_rng(seed))
    dec = build_decoupling(A, B, C, D, eps)
    r_l, r_h = chang_residuals(A, B, C, D, dec.L, dec.H, eps)
    assert max(r_l, r_h) <= CHANG_RESIDUAL_TOL * max(1.0, np.linalg.norm(C), np.linalg.norm(B))
    Md = dec.T_inv @ full_system_matrix(A, B, C, D, eps) @ dec.T
    assert max(np.linalg.norm(Md[:2, 2:]), np.linalg.norm(Md[2:, :2])) <= 1e-8


def test_build_decoupling_overlapping_spectra_raises_no_convergence():
    # slow block A - B L = diag(-1, -2) and fast block D/eps = diag(-1, -6)
    # share the eigenvalue -1, so the H equation's matrix K is singular
    with pytest.raises(NoConvergence, match="H equation singular"):
        build_decoupling(np.diag([-1.0, -2.0]), np.zeros((2, 2)), np.zeros((2, 2)),
                         np.diag([-0.5, -3.0]), 0.5)


def test_eigenvalues_preserved_by_decoupling():
    rng = np.random.default_rng(8)
    A, B, C, D = random_stable_sp_system(rng)
    dec = build_decoupling(A, B, C, D, 0.01)
    M = full_system_matrix(A, B, C, D, 0.01)
    full = np.sort_complex(np.linalg.eigvals(M))
    blocks = np.sort_complex(np.concatenate([
        np.linalg.eigvals(dec.slow_block), np.linalg.eigvals(dec.fast_block)]))
    assert np.allclose(full, blocks, atol=1e-8 * max(1, np.abs(full).max()))


def test_chang_first_order_in_eps():
    L0, _, _ = reduced_model(A_SPRING, B_SPRING, C_SPRING, D_SPRING)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        L = solve_chang_lti(A_SPRING, B_SPRING, C_SPRING, D_SPRING, eps)
        ratios.append(np.linalg.norm(L - L0) / eps)
    ratios = np.array(ratios)
    assert ratios.max() < 100.0
    assert ratios.max() / ratios.min() < 2.0  # roughly constant => O(eps)


def test_epsilon_star_spring():
    A_poly = MatrixPolytope([[[0.0, 1.0], [-5.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]])
    eps_hat = epsilon_star(A_poly, B_SPRING, C_SPRING,
                           MatrixPolytope([D_SPRING]), spring_cert())
    assert eps_hat >= 0.01


def test_epsilon_star_decoupled_hits_eps_max():
    cert = SPDominanceCertificate(P_r=np.eye(2), P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    eps_hat = epsilon_star(MatrixPolytope([-np.eye(2)]), np.zeros((2, 1)),
                           np.zeros((1, 2)), MatrixPolytope([[[-2.0]]]), cert)
    assert eps_hat == pytest.approx(1.0)


def test_epsilon_star_unstable_fast_block():
    cert = SPDominanceCertificate(P_r=np.eye(2), P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    with pytest.raises(InfeasibleAtFloor):
        epsilon_star(MatrixPolytope([-np.eye(2)]), np.zeros((2, 1)),
                     np.zeros((1, 2)), MatrixPolytope([[[1.0]]]), cert)


def test_epsilon_star_decreases_with_sigma():
    A_poly = MatrixPolytope([[[0.0, 1.0], [-5.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]])
    loose = epsilon_star(A_poly, B_SPRING, C_SPRING,
                         MatrixPolytope([D_SPRING]), spring_cert(sigma_f=1.0))
    tight = epsilon_star(A_poly, B_SPRING, C_SPRING,
                         MatrixPolytope([D_SPRING]), spring_cert(sigma_f=1.9))
    assert tight <= loose + 1e-12
