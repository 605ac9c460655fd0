import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdominance import cli, decouple
from spdominance.certify import (FEASIBILITY_MARGIN, MatrixPolytope, SPDominanceCertificate,
                                 block_conditions, block_margins)
from spdominance.decouple import (BISECT_STEPS, CHANG_RESIDUAL_TOL, EPS_FLOOR, EPS_MAX,
                                  MONOTONE_CHECK_POINTS, build_decoupling, chang_residuals,
                                  chang_stack, coupling_residual_limit, epsilon_star,
                                  full_system_matrix, reduced_model,
                                  solve_chang_lti)
from spdominance.errors import (InfeasibleAtFloor, NoConvergence,
                                NonpositiveEps, SingularD)
from spdominance.systems import (LinearSPSystem, a_block_hull, nonlinear_spring_certificate,
                                 nonlinear_spring_system)

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
    # the slow root of 0.1 L^2 - L - 1 = 0, the one nearest L0 = -1
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
    # 50 L^2 - L + 1 = 0 has no real root: [[0, 50], [-1, -1]] has a complex
    # eigenvalue pair of equal modulus, so there is no slow/fast splitting
    with pytest.raises(NoConvergence, match="no slow/fast splitting at eps=50.0: "
                                            "no strict modulus gap"):
        solve_chang_lti([[0.0]], [[1.0]], [[-1.0]], [[-1.0]], 50.0)


def test_chang_slow_root_past_fixed_point_contraction():
    # 0.74 L^2 - L - 1 = 0; a fixed-point iteration from L0 = -1 does not
    # converge here, the slow invariant subspace gives the root directly
    L = solve_chang_lti([[0.0]], [[1.0]], [[1.0]], [[-1.0]], 0.74)
    assert L[0, 0] == pytest.approx((1.0 - np.sqrt(3.96)) / 1.48, abs=1e-12)


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_r=st.integers(1, 4), n_f=st.integers(1, 3),
       log_eps=st.floats(np.log10(EPS_FLOOR), -0.5))
def test_decoupling_property_random_stable_systems(seed, n_r, n_f, log_eps):
    A, B, C, D = random_stable_sp_system(np.random.default_rng(seed), n_r, n_f)
    eps = 10.0 ** log_eps
    # wherever the n_r slow eigenvalues of eps M are clearly apart from the
    # fast ones, the decoupling exists and must be found
    moduli = np.sort(np.abs(np.linalg.eigvals(eps * full_system_matrix(A, B, C, D, eps))))
    assume(moduli[n_r - 1] < 0.9 * moduli[n_r])
    dec = build_decoupling(A, B, C, D, eps)
    n = n_r + n_f
    assert np.linalg.norm(dec.T @ dec.T_inv - np.eye(n)) <= 1e-12
    limit = coupling_residual_limit(B, C)
    assert max(chang_residuals(A, B, C, D, dec.L, dec.H, eps)) <= limit
    # the lower-left block of T^-1 M T is -(D L - C - eps L(A - B L))/eps; the
    # upper-right one is of the H residual's size; twice the bound covers rounding
    Md = dec.T_inv @ full_system_matrix(A, B, C, D, eps) @ dec.T
    assert max(np.linalg.norm(Md[:n_r, n_r:]), np.linalg.norm(Md[n_r:, :n_r])) \
        <= 2 * limit / eps


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
    # share the eigenvalue -1: the eigenvectors of the n_r smallest moduli of
    # [[eps A, eps B], [C, D]] are x1 and z1, singular on x, so L has no
    # slow subspace to come from and the H equation is never reached
    with pytest.raises(NoConvergence, match="no slow/fast splitting at eps=0.5: "
                                            "singular slow eigenvectors"):
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
    eps_hat, violations = epsilon_star(A_poly, B_SPRING, C_SPRING,
                                       MatrixPolytope([D_SPRING]), spring_cert())
    assert eps_hat >= 0.01 and violations == []


def test_epsilon_star_decoupled_hits_eps_max():
    cert = SPDominanceCertificate(P_r=np.eye(2), P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    eps_hat, violations = epsilon_star(MatrixPolytope([-np.eye(2)]), np.zeros((2, 1)),
                                       np.zeros((1, 2)), MatrixPolytope([[[-2.0]]]), cert)
    assert eps_hat == pytest.approx(1.0) and violations == []


def test_epsilon_star_unstable_fast_block():
    cert = SPDominanceCertificate(P_r=np.eye(2), P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    with pytest.raises(InfeasibleAtFloor):
        epsilon_star(MatrixPolytope([-np.eye(2)]), np.zeros((2, 1)),
                     np.zeros((1, 2)), MatrixPolytope([[[1.0]]]), cert)


def test_epsilon_star_decreases_with_sigma():
    A_poly = MatrixPolytope([[[0.0, 1.0], [-5.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]])
    loose, _ = epsilon_star(A_poly, B_SPRING, C_SPRING,
                            MatrixPolytope([D_SPRING]), spring_cert(sigma_f=1.0))
    tight, _ = epsilon_star(A_poly, B_SPRING, C_SPRING,
                            MatrixPolytope([D_SPRING]), spring_cert(sigma_f=1.9))
    assert tight <= loose + 1e-12


def scalar_epsilon_star(A_poly, B, C, D_poly, cert, eps_max=EPS_MAX):
    """Reference search: feasibility one eps and one vertex pair at a time
    through solve_chang_lti and block_conditions; an infeasible floor raises,
    then BISECT_STEPS plain bisection steps, unless eps_max is feasible; the
    result drops to the largest of the MONOTONE_CHECK_POINTS log-spaced
    re-check points below the lowest infeasible one."""
    def feasible(eps):
        for A in A_poly.vertices:
            for D in D_poly.vertices:
                try:
                    L = solve_chang_lti(A, B, C, D, eps)
                except NoConvergence:
                    return False
                slow, fast = block_conditions(cert, A, B, L, D, eps)
                if not (slow.feasible and fast.feasible):
                    return False
        return True

    if not feasible(EPS_FLOOR):
        raise InfeasibleAtFloor(f"block conditions infeasible even at eps={EPS_FLOOR}")
    top = feasible(eps_max)
    lo, hi = EPS_FLOOR, eps_max
    for _ in range(0 if top else BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    eps_hat = eps_max if top else lo
    points = np.geomspace(EPS_FLOOR, eps_hat, MONOTONE_CHECK_POINTS)
    bad = [k for k, eps in enumerate(points) if not feasible(eps)]
    return points[max(bad[0], 1) - 1] if bad else eps_hat


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def lmi_system(rng, n_r, n_f, n_a, n_d, feasible, fast_scale=1.0):
    """A linear two-time-scale system built by congruence around a known
    rank-1 certificate diag(-1, 1, ..., 1): each reduced-model vertex is nearly
    diagonal, its first mode slower than -lambda_r (too fast in the first
    vertex when not feasible) and the others faster; the fast blocks are
    stable but slower than lambda_r, so the block conditions fail at eps = 1.
    Random orthogonal Q and R then move every entry. fast_scale multiplies C
    and D, which leaves D^{-1} C alone and maps the feasibility at eps to that
    at eps / fast_scale: a small one moves the threshold down with it. Returns
    (A polytope, B, C, D polytope, certificate)."""
    lam = 1.5
    P_hat = np.diag([-1.0] + [1.0] * (n_r - 1))
    while True:
        D_verts = []
        for _ in range(n_d):
            K = rng.standard_normal((n_f, n_f))
            K *= 0.3 / max(1e-12, np.linalg.norm(K))
            D_verts.append(-np.eye(n_f) + 0.5 * (K - K.T) + 0.1 * (K + K.T))
        B = rng.standard_normal((n_r, n_f))
        C = rng.standard_normal((n_f, n_r))
        B *= 0.3 / np.linalg.norm(B)
        C *= 0.3 / np.linalg.norm(C)
        A_verts = []
        for i in range(n_a):
            diag = -lam - np.linspace(0.5, 1.0, n_r)
            diag[0] = -lam + (0.6 if feasible or i > 0 else -0.6)
            A0 = np.diag(diag + 0.1 * rng.uniform(-1.0, 1.0, n_r))
            A0 += 0.03 * rng.standard_normal((n_r, n_r))
            A_verts.append(A0 - B @ C)
        worst = max(np.linalg.eigvalsh(P_hat @ A0 + A0.T @ P_hat + 2.0 * lam * P_hat).max()
                    for A0 in (A - B @ np.linalg.solve(D, C) for A in A_verts for D in D_verts))
        if feasible and worst < -0.05:
            sigma_r = -0.5 * worst
            break
        if not feasible and worst > 0.05:
            sigma_r = 0.1
            break
    Q, R = orthogonal(rng, n_r), orthogonal(rng, n_f)
    cert = SPDominanceCertificate(P_r=Q @ P_hat @ Q.T, P_f=np.eye(n_f), lambda_r=lam,
                                  lambda_f=0.25, sigma_r=sigma_r, sigma_f=0.25, p=1)
    return (MatrixPolytope([Q @ A @ Q.T for A in A_verts]), Q @ B @ R.T,
            fast_scale * R @ C @ Q.T,
            MatrixPolytope([fast_scale * R @ D @ R.T for D in D_verts]), cert)


# where the modes swap roles (n_r = n_f = 1 with a fast slow block), eps_max can be
# feasible above infeasible eps: both searches drop below the re-check's lowest
# violation, or raise where the floor fails, and epsilon_star warns; with
# fast_scale 1 the threshold is high enough that the stacked search's bracket
# is one ulp wide before BISECT_STEPS steps, with 2^-10 it is below 2^-8 and
# the search takes all of them
@pytest.mark.filterwarnings("ignore:feasibility not monotone")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_r=st.integers(1, 4), n_f=st.integers(1, 3),
       n_a=st.integers(1, 3), n_d=st.integers(1, 3), feasible=st.booleans(),
       fast_scale=st.sampled_from([1.0, 2.0**-10]))
def test_stacked_search_matches_scalar_bisection(seed, n_r, n_f, n_a, n_d, feasible,
                                                 fast_scale):
    system = lmi_system(np.random.default_rng(seed), n_r, n_f, n_a, n_d, feasible,
                        fast_scale)
    try:
        want = scalar_epsilon_star(*system)
    except InfeasibleAtFloor:
        with pytest.raises(InfeasibleAtFloor):
            epsilon_star(*system)
        return
    assert epsilon_star(*system)[0] == pytest.approx(want, rel=1e-12, abs=0)


def test_epsilon_star_raises_where_only_eps_max_passes():
    # A = -2.12, B = -0.3, C = 0.3, D = -0.94 with an infeasible certificate:
    # at eps = 1 the smallest-modulus mode of [[eps A, eps B], [C, D]] is D's, so
    # L is the other root and eps_max passes while the floor fails
    system = lmi_system(np.random.default_rng(0), 1, 1, 1, 1, False)
    assert np.allclose([m.item() for m in (system[0].vertices[0], system[1], system[2],
                                           system[3].vertices[0])],
                       [-2.12, -0.3, 0.3, -0.94], atol=0.005)
    with pytest.raises(InfeasibleAtFloor):
        epsilon_star(*system)


def banded_case(monkeypatch):
    """A diagonal system and a certificate, feasible but for eps in (1e-6,
    1e-4), where block_margins is patched to fail: eps_max passes, and of the
    re-check points 1e-12, 10^-11.2, ..., 1 the two inside, 10^-5.6 and
    10^-4.8, fail, so the bound drops to 10^-6.4 with a warning for each."""
    def banded(cert, A, B, L, D, eps):
        slow, fast = block_margins(cert, A, B, L, D, eps)
        return np.where((1e-6 < eps[:, 0, 0]) & (eps[:, 0, 0] < 1e-4), 1.0, slow), fast

    monkeypatch.setattr(decouple, "block_margins", banded)
    cert = SPDominanceCertificate(P_r=np.eye(2), P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    return LinearSPSystem(A=-np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                          D=[[-2.0]]), cert


def test_epsilon_star_drops_below_a_violation_of_its_recheck(monkeypatch):
    system, cert = banded_case(monkeypatch)
    with pytest.warns(UserWarning, match="feasibility not monotone") as record:
        eps_hat, violations = epsilon_star(system.A, system.B, system.C, system.D, cert)
    assert len(record) == 2
    points = np.geomspace(EPS_FLOOR, 1.0, MONOTONE_CHECK_POINTS)
    assert eps_hat == points[7] and violations == list(points[8:10])


def test_epsilon_star_report_lists_the_violations_of_its_recheck(monkeypatch):
    # the case above through the stage that epsilon-star and reproduce-paper
    # report from: it lists both violations, and both still warn from the stage
    system, cert = banded_case(monkeypatch)
    with pytest.warns(UserWarning, match="feasibility not monotone") as record:
        fragment, eps_hat = cli.epsilon_star_stage(system, cert)
    points = np.geomspace(EPS_FLOOR, 1.0, MONOTONE_CHECK_POINTS)
    assert fragment == {"epsilon_star": points[7], "monotone_violations": list(points[8:10])}
    assert eps_hat == points[7]
    assert [w.filename for w in record] == [cli.__file__] * 2


def test_chang_stack_matches_solve_chang_lti_per_slot():
    rng = np.random.default_rng(17)
    A, B, C, D = random_stable_sp_system(rng, n_r=3, n_f=2)
    As = A + 0.3 * rng.standard_normal((6, 3, 3))
    Ds = D + 0.1 * rng.standard_normal((6, 2, 2))
    eps = np.array([1e-6, 1e-3, 0.005, 0.01, 0.02, 0.05])
    L, why, r, _ = chang_stack(As, B, C, Ds, eps[:, None, None])
    assert list(why) == [""] * 6
    for k in range(6):
        assert np.allclose(L[k], solve_chang_lti(As[k], B, C, Ds[k], eps[k]),
                           rtol=1e-12, atol=1e-14)
        assert r[k] <= coupling_residual_limit(B, C)


def test_chang_stack_failed_slot_marks_only_itself():
    # slot 1 has a NaN vertex and slot 2 no strict modulus gap (the spring's
    # [[eps A, eps B], [C, D]] has a complex pair at eps = 0.1); neither
    # raises, and only they get a NaN L and NaN, so infeasible, margins; the
    # complex pair of slot 2 leaves the others' arithmetic, and their L, as it
    # is for each slot alone
    A = np.repeat(A_SPRING[None], 4, axis=0)
    A[1, 1, 0] = np.nan
    D = np.repeat(D_SPRING[None], 4, axis=0)
    eps = np.array([0.01, 0.01, 0.1, 0.02])[:, None, None]
    L, why, *_ = chang_stack(A, B_SPRING, C_SPRING, D, eps)
    assert list(why) == ["", "Array must not contain infs or NaNs", "no strict modulus gap", ""]
    assert np.isnan(L[1:3]).all()
    for k in (0, 3):
        assert np.array_equal(L[k], solve_chang_lti(A[k], B_SPRING, C_SPRING, D[k], eps[k, 0, 0]))
    for margins in block_margins(spring_cert(), A, B_SPRING, L, D, eps):
        assert list(np.isnan(margins)) == [False, True, True, False]
    with pytest.raises(NoConvergence, match="Array must not contain infs or NaNs"):
        solve_chang_lti(A[1], B_SPRING, C_SPRING, D[1], 0.01)


def test_chang_stack_singular_slot_marks_only_itself():
    # decoupled blocks, so the slow eigenvectors are the eigenvalues' own axes:
    # slot 0 takes x1 and z1 (modulus 0.5 each, V1 singular), slot 1 has
    # moduli 1, 2, 2, 3 (no gap after the second), slot 2 splits cleanly
    A = np.repeat(np.diag([-1.0, -2.0])[None], 3, axis=0)
    D = np.array([np.diag([-0.5, -3.0]), np.diag([-2.0, -3.0]), np.diag([-4.0, -3.0])])
    eps = np.array([0.5, 1.0, 0.1])[:, None, None]
    L, why, *_ = chang_stack(A, np.zeros((2, 2)), np.zeros((2, 2)), D, eps)
    assert list(why) == ["singular slow eigenvectors", "no strict modulus gap", ""]
    assert np.isnan(L[:2]).all() and np.array_equal(L[2], np.zeros((2, 2)))


def test_chang_stack_slot_is_independent_of_its_stack_mates():
    # slot 2's slow eigenvalues are a complex pair (its reduced model
    # [[0, 1], [-5, 0]] has eigenvalues +-i sqrt(5)), the spring vertices'
    # are real: each vertex's L has the same bits alone and beside slot 2
    A = np.array([A_SPRING, [[0.0, 1.0], [-5.0, 0.0]], [[0.0, 1.0], [-5.0, 5.0]]])
    D = np.repeat(D_SPRING[None], 3, axis=0)
    for e in (0.01, 0.02, 0.03, 0.04):
        eps = np.array([e, e, 0.02])[:, None, None]
        L, why, r, _ = chang_stack(A, B_SPRING, C_SPRING, D, eps)
        assert list(why) == [""] * 3 and (r <= coupling_residual_limit(B_SPRING, C_SPRING)).all()
        for k in range(2):
            alone = chang_stack(A[k:k + 1], B_SPRING, C_SPRING, D[k:k + 1], eps[k:k + 1])[0]
            assert np.array_equal(L[k], alone[0])
    M = np.block([[0.02 * A[2], 0.02 * B_SPRING], [C_SPRING, D_SPRING]])
    assert np.iscomplex(np.linalg.eigvals(M)).sum() == 2


def kron_form(A, B, D, L, eps):
    """The H equation's K of one slot, as np.kron forms it."""
    return (np.kron((D + eps * L @ B).T, np.eye(len(A)))
            - eps * np.kron(np.eye(len(D)), A - B @ L))


def per_slot_chang_stack(monkeypatch, A, B, C, D, eps):
    """chang_stack with the polish it had, one loose slot at a time, the
    reference its stacked polish is held to bit for bit: chang_stack with no
    slot loose, then one Newton step on each loose slot alone, on the 2-D
    np.kron form with 2-D np.linalg.norm. Returns chang_stack's four values
    and the number of loose slots."""
    limit = coupling_residual_limit(B, C)
    with monkeypatch.context() as m:
        m.setattr(decouple, "coupling_residual_limit", lambda B, C: np.inf)
        L, why, r, closing = chang_stack(A, B, C, D, eps)
    loose = np.flatnonzero((why == "") & (r > limit))
    for k in loose:
        F = decouple._l_equation(A[k], B, C, D[k], L[k], eps[k, 0, 0])
        L[k] -= np.linalg.solve(kron_form(A[k], B, D[k], L[k], eps[k, 0, 0]).T,
                                F.ravel()).reshape(L[k].shape)
        r[k] = np.linalg.norm(decouple._l_equation(A[k], B, C, D[k], L[k], eps[k, 0, 0]))
    L[(why != "") | ~(r <= limit)] = np.nan
    return L, why, r, closing, len(loose)


@pytest.mark.filterwarnings("ignore:feasibility not monotone")
@pytest.mark.parametrize("seed, shape", [(0, (3, 1, 2, 2, True)), (1, (8, 1, 1, 4, True)),
                                         (0, (3, 2, 2, 2, True)), (0, (2, 2, 1, 2, True)),
                                         (0, (4, 3, 2, 1, False))])
def test_stacked_polish_matches_per_slot_polish(monkeypatch, seed, shape):
    # every stack a search solves: L, why, r and closing have the bits of the
    # per-slot polish, and the search's stacks hold loose slots
    stacks, stack = [], decouple.chang_stack

    def recorded(A, B, C, D, eps):
        stacks.append((A, B, C, D, eps))
        return stack(A, B, C, D, eps)

    monkeypatch.setattr(decouple, "chang_stack", recorded)
    try:
        epsilon_star(*lmi_system(np.random.default_rng(seed), *shape))
    except InfeasibleAtFloor:
        pass
    monkeypatch.undo()
    loose = 0
    for A, B, C, D, eps in stacks:
        *want, n = per_slot_chang_stack(monkeypatch, A, B, C, D, eps)
        got = chang_stack(A, B, C, D, eps)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        loose += n
    assert loose > 0


@pytest.mark.parametrize("n_r, n_f", [(1, 1), (3, 1), (2, 3)])
def test_coupling_kron_matches_np_kron_per_slot(n_r, n_f):
    # the broadcast K of a stack, and of 2-D blocks with a float eps, has the
    # bits of np.kron's in every slot
    rng = np.random.default_rng(10 * n_r + n_f)
    A, D = rng.standard_normal((6, n_r, n_r)), rng.standard_normal((6, n_f, n_f))
    B, L = rng.standard_normal((n_r, n_f)), rng.standard_normal((6, n_f, n_r))
    eps = rng.uniform(0.01, 1.0, (6, 1, 1))
    K = decouple._coupling_kron(A, B, D, L, eps)
    assert K.shape == (6, n_r * n_f, n_r * n_f)
    for k in range(6):
        want = kron_form(A[k], B, D[k], L[k], eps[k, 0, 0]).tobytes()
        assert K[k].tobytes() == want
        assert decouple._coupling_kron(A[k], B, D[k], L[k], eps[k, 0, 0]).tobytes() == want


def test_epsilon_star_calls_eig_once_per_round(monkeypatch):
    # one eig for eps_max, the floor and the first round, one per later round
    # of 3 bisection steps, one for the monotonicity re-check: a guard on the
    # batching that counts calls rather than timing them (the scalar search
    # made 151 on the spring)
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(decouple.np.linalg, "eig", counted)
    A_poly, B, C, D = a_block_hull(nonlinear_spring_system())
    cert = nonlinear_spring_certificate()
    eps_hat, _ = epsilon_star(A_poly, B, C, MatrixPolytope([D]), cert)
    assert len(calls) <= 1 + (BISECT_STEPS // 3 - 1) + 1
    monkeypatch.undo()
    assert eps_hat == pytest.approx(
        scalar_epsilon_star(A_poly, B, C, MatrixPolytope([D]), cert), rel=1e-12, abs=0)


def count_stacked_solves(monkeypatch):
    """Patch decouple.chang_stack to record each call's stack length."""
    calls = []
    chang_stack = decouple.chang_stack

    def counted(A, B, C, D, eps):
        calls.append(len(eps))
        return chang_stack(A, B, C, D, eps)

    monkeypatch.setattr(decouple, "chang_stack", counted)
    return calls


def test_spring_search_makes_9_stacked_solves(monkeypatch):
    # eps_max, the floor and the first round's 7 points share one call; the
    # bracket is one ulp wide after 57 steps, which 7 more rounds of 7 to 23
    # points decide, and the re-check makes 9 calls of 218 points in all at
    # the hull's 2 vertex pairs (20 calls of 302 with rounds of the tree alone)
    calls = count_stacked_solves(monkeypatch)
    cfg = cli.spring_config()
    _, eps_hat = cli.epsilon_star_stage(cli.build_system(cfg), cli.build_certificate(cfg))
    assert eps_hat == 0.04184602135303708
    assert len(calls) == 9 and sum(calls) == 218


def test_search_below_2_to_the_minus_8_takes_every_step(monkeypatch):
    # the bracket of a threshold below 2^-8 is still wider than one ulp after
    # BISECT_STEPS steps: the tree search makes the first call, the 19 rounds
    # after it and the re-check; the predicted paths decide the steps in 9 rounds
    system = lmi_system(np.random.default_rng(3), 2, 2, 2, 1, True, 2.0**-10)
    calls = count_stacked_solves(monkeypatch)
    eps_hat, _ = epsilon_star(*system)
    assert eps_hat < 2.0**-8 and len(calls) == 11
    calls.clear()
    assert tree_epsilon_star(*system)[0] == eps_hat
    assert len(calls) == 1 + (BISECT_STEPS // 3 - 1) + 1
    monkeypatch.undo()
    assert eps_hat == pytest.approx(scalar_epsilon_star(*system), rel=1e-12, abs=0)


def tree_epsilon_star(A_poly, B, C, D_poly, cert, eps_max=EPS_MAX):
    """Reference search: epsilon_star with rounds of the next 3 levels of the
    bisection tree alone, 7 midpoints in one stacked solve through
    decouple.chang_stack, and no prediction; the same first call, stop once
    one ulp wide, and re-check. Returns (eps_hat, violations), without
    warnings."""
    A = np.array([a for a in A_poly.vertices for _ in D_poly.vertices])
    D = np.array([d for _ in A_poly.vertices for d in D_poly.vertices])

    def feasible(eps):
        m, eps = len(eps), np.repeat(eps, len(A))[:, None, None]
        As, Ds = np.tile(A, (m, 1, 1)), np.tile(D, (m, 1, 1))
        slow, fast = block_margins(cert, As, B, decouple.chang_stack(As, B, C, Ds, eps)[0],
                                   Ds, eps)
        return ((slow <= FEASIBILITY_MARGIN) & (fast <= FEASIBILITY_MARGIN)).reshape(m, -1).all(1)

    def tree(lo, hi):
        ends = [lo, hi]
        for _ in range(3):
            ends = [x for a, b in zip(ends, ends[1:]) for x in (a, 0.5 * (a + b))] + [hi]
        return ends[1:-1]

    lo, hi = EPS_FLOOR, eps_max
    mids = tree(lo, hi)
    top, floor, *decided = feasible(np.array([eps_max, EPS_FLOOR, *mids]))
    if not floor:
        raise InfeasibleAtFloor(f"block conditions infeasible even at eps={EPS_FLOOR}")
    ok = dict(zip(mids, decided))
    for step in range(0 if top else BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if step and step % 3 == 0:
            mids = tree(lo, hi)
            ok = dict(zip(mids, feasible(np.array(mids))))
        lo, hi = (mid, hi) if ok[mid] else (lo, mid)
    eps_hat = eps_max if top else lo
    points = np.geomspace(EPS_FLOOR, eps_hat, MONOTONE_CHECK_POINTS)
    ok = feasible(points)
    return (float(eps_hat if ok.all() else points[max(np.argmin(ok), 1) - 1]),
            [float(eps) for eps in points[~ok]])


def searched(search, system):
    """search(*system) as a value, its result or the type and text of what it
    raised, and how many stacked solves it made."""
    calls, chang_stack = [], decouple.chang_stack

    def counted(A, B, C, D, eps):
        calls.append(len(eps))
        return chang_stack(A, B, C, D, eps)

    decouple.chang_stack = counted
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return search(*system), len(calls)
    except Exception as e:
        return (type(e), str(e)), len(calls)
    finally:
        decouple.chang_stack = chang_stack


# the predicted paths change which points a round evaluates, never a decision:
# eps_hat, the violations and any exception are the tree search's, bit for bit
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_r=st.integers(1, 4), n_f=st.integers(1, 3),
       n_a=st.integers(1, 3), n_d=st.integers(1, 3), feasible=st.booleans(),
       fast_scale=st.sampled_from([1.0, 2.0**-10]))
def test_search_matches_tree_search(seed, n_r, n_f, n_a, n_d, feasible, fast_scale):
    system = lmi_system(np.random.default_rng(seed), n_r, n_f, n_a, n_d, feasible,
                        fast_scale)
    got, calls = searched(epsilon_star, system)
    want, tree_calls = searched(tree_epsilon_star, system)
    assert got == want and calls <= tree_calls


def margin_threshold_system():
    """An lmi_system whose threshold is a block margin crossing 0: at eps_hat
    the splitting is far from lost, and one ulp above a margin is positive."""
    return lmi_system(np.random.default_rng(1), 2, 1, 1, 1, True)


def splitting_threshold_system():
    """An lmi_system whose threshold is a lost slow/fast splitting: at eps_hat
    the margins are well inside, and one ulp above chang_stack finds no
    strict modulus gap."""
    return lmi_system(np.random.default_rng(0), 2, 1, 1, 1, True)


def splitting_and_margin(system, eps):
    """chang_stack's why and closing measure, and the worst block margin, at eps."""
    A_poly, B, C, D_poly, cert = system
    A, D = A_poly.vertices[0][None], D_poly.vertices[0][None]
    eps = np.full((1, 1, 1), eps)
    L, why, _, closing = chang_stack(A, B, C, D, eps)
    return why[0], closing[0], max(m[0] for m in block_margins(cert, A, B, L, D, eps))


def test_search_matches_tree_search_at_a_margin_crossing():
    system = margin_threshold_system()
    got, calls = searched(epsilon_star, system)
    want, tree_calls = searched(tree_epsilon_star, system)
    assert got == want and (calls, tree_calls) == (8, 19)
    assert splitting_and_margin(system, got[0])[1] > 0.01
    why, _, worst = splitting_and_margin(system, np.nextafter(got[0], np.inf))
    assert why == "" and worst > FEASIBILITY_MARGIN


def test_search_matches_tree_search_where_the_splitting_is_lost():
    system = splitting_threshold_system()
    got, calls = searched(epsilon_star, system)
    want, tree_calls = searched(tree_epsilon_star, system)
    assert got == want and (calls, tree_calls) == (10, 19)
    _, closing, worst = splitting_and_margin(system, got[0])
    assert closing < 1e-12 and worst < -1.0
    why, _, worst = splitting_and_margin(system, np.nextafter(got[0], np.inf))
    assert why == "no strict modulus gap" and np.isnan(worst)


def test_chang_stack_closing_measure():
    # decoupled blocks, so the eigenvalues are eps A's and D's diagonals: the
    # 2nd and 3rd smallest in modulus are -0.2 and -3 in slot 0, real and of
    # one sign, so the relative gap is squared; 0.2 and -3 in slot 1, as is;
    # slot 2 has moduli 1, 2, 2, 3 and no gap
    A = np.array([np.diag([-1.0, -2.0]), np.diag([-1.0, 2.0]), np.diag([-1.0, -2.0])])
    D = np.array([np.diag([-4.0, -3.0]), np.diag([-4.0, -3.0]), np.diag([-2.0, -3.0])])
    eps = np.array([0.1, 0.1, 1.0])[:, None, None]
    *_, closing = chang_stack(A, np.zeros((2, 2)), np.zeros((2, 2)), D, eps)
    gap = 1.0 - 0.2 / 3.0
    assert closing == pytest.approx([gap ** 2, gap, 0.0], rel=1e-14, abs=0)
    # a complex pair of slow eigenvalues below the real fast one: as is
    A = np.array([[0.0, 1.0], [-5.0, 5.0]])
    *_, closing = chang_stack(A[None], B_SPRING, C_SPRING, D_SPRING[None],
                              np.full((1, 1, 1), 0.02))
    lam = sorted(np.linalg.eigvals(np.block([[0.02 * A, 0.02 * B_SPRING],
                                             [C_SPRING, D_SPRING]])), key=abs)
    assert np.iscomplex(lam[1]) and not np.iscomplex(lam[2])
    assert closing[0] == pytest.approx(1.0 - abs(lam[1]) / abs(lam[2]), rel=1e-12)
