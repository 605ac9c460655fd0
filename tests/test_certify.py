import numpy as np
import pytest

from spdominance.certify import (SPDominanceCertificate, block_margins, certify_polytope,
                                 lmi_residual, vertex_stack)
from spdominance.decouple import certify_sp, epsilon_star, solve_chang_lti
from spdominance.errors import DimensionMismatch, NonpositiveEps
from spdominance.linalg import eigvalsh_stack, symmetric

from test_linalg import quad_eig_oracle

P_R = [[-5.1987, 3.6260], [3.6260, 6.1987]]
M_LO = [[0.0, 1.0], [-5.0, -5.0]]
M_HI = [[0.0, 1.0], [2.0, -5.0]]
# the spring's Jacobian hull: B, C and D constant, and A at the ends of the
# stiffness, whose reduced matrices A - B D^{-1} C are M_LO and M_HI
SPRING_HULL = (vertex_stack([[[0.0, 1.0], [-5.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]]),
               np.array([[0.0], [-5.0]]), np.array([[0.0, 1.0]]), vertex_stack([[[-1.0]]]))


def spring_cert(sigma_r=0.01):
    return SPDominanceCertificate(P_r=P_R, P_f=[[1.0]], lambda_r=2.0,
                                  lambda_f=0.5, sigma_r=sigma_r, sigma_f=1.0, p=1)


def test_certificate_warns_once_for_an_asymmetric_block():
    # the inertia checks symmetrize again, but symmetric's own output passes unwarned
    with pytest.warns(UserWarning, match="asymmetry") as record:
        cert = SPDominanceCertificate(P_r=[[-5.1987, 3.6260], [3.6261, 6.1987]], P_f=[[1.0]],
                                      lambda_r=2.0, lambda_f=0.5, sigma_r=0.01, sigma_f=1.0,
                                      p=1)
    assert len(record) == 1 and cert.P_r[0, 1] == cert.P_r[1, 0]


def test_lmi_residual_scalar():
    S = lmi_residual(symmetric([[1.0]]), [[-1.0]], 0.0, 1.0)
    assert S[0, 0] == pytest.approx(-1.0)


def test_lmi_residual_fast_block_boundary():
    S = lmi_residual(symmetric([[1.0]]), [[-1.0]], 0.5, 1.0)
    assert S[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_lmi_residual_spring_slow_vs_oracle():
    S = lmi_residual(symmetric(P_R), M_HI, 2.0, 0.01)
    margin = eigvalsh_stack(S)[-1]
    assert margin <= 0.0
    assert margin == pytest.approx(quad_eig_oracle(S)[-1], rel=1e-12)


def test_certify_polytope_trivial():
    res = certify_polytope(symmetric(np.eye(2)), vertex_stack([-np.eye(2)]), 0.0, 1.0)
    assert res.feasible
    assert res.worst_margin == pytest.approx(-1.0)


def test_certify_polytope_spring_vertices():
    res = certify_polytope(symmetric(P_R), vertex_stack([M_LO, M_HI]), 2.0, 0.01)
    assert res.feasible
    assert all(m <= 0 for m in res.margins)


def test_certify_polytope_outside_slope_range():
    # slope 3 exceeds the certified range; oracle decides feasibility
    A = np.array([[0.0, 1.0], [3.0, -5.0]])
    P = np.array(P_R)
    S = P @ A + A.T @ P + 4.0 * P + 0.01 * np.eye(2)
    expect = quad_eig_oracle(S)[-1]
    res = certify_polytope(symmetric(P_R), vertex_stack([A]), 2.0, 0.01)
    assert res.worst_margin == pytest.approx(expect, rel=1e-12)
    assert res.feasible == (expect <= 0)


def test_certify_polytope_nan_vertex_infeasible():
    res = certify_polytope(P_R, vertex_stack([M_LO, [[np.nan, 1.0], [2.0, -5.0]]]),
                           2.0, 0.01)
    assert not res.feasible
    assert res.worst_vertex == 1
    assert np.isnan(res.worst_margin)


def test_certify_sp_spring():
    slow, fast = certify_sp(*SPRING_HULL, spring_cert())
    assert slow.feasible and fast.feasible
    assert slow.margins == certify_polytope(P_R, vertex_stack([M_LO, M_HI]), 2.0, 0.01).margins
    assert fast.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_certify_sp_stability_case():
    cert = SPDominanceCertificate(P_r=np.eye(2), P_f=np.eye(2), lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    slow, fast = certify_sp(vertex_stack([-np.eye(2)]), np.zeros((2, 2)), np.zeros((2, 2)),
                            vertex_stack([-np.eye(2)]), cert)
    assert slow.feasible and fast.feasible


def test_certify_sp_unstable_fast_block():
    cert = SPDominanceCertificate(P_r=[[1.0]], P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    _, fast = certify_sp(vertex_stack([[[-1.0]]]), [[0.0]], [[0.0]], vertex_stack([[[1.0]]]),
                         cert)
    assert not fast.feasible
    assert fast.worst_margin == pytest.approx(2.0 + 1.0)  # 2 + 2*lam_f + sigma_f


def test_certificate_validation():
    with pytest.raises(ValueError):
        SPDominanceCertificate(P_r=np.eye(2), P_f=np.eye(2), lambda_r=0.0,
                               lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=1)
    with pytest.raises(ValueError):
        SPDominanceCertificate(P_r=P_R, P_f=[[-1.0]], lambda_r=0.0,
                               lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=1)
    with pytest.raises(ValueError):
        SPDominanceCertificate(P_r=P_R, P_f=[[1.0]], lambda_r=0.0,
                               lambda_f=0.0, sigma_r=0.0, sigma_f=1.0, p=1)


def test_block_conditions_spring_small_eps():
    A = np.array([[0.0, 1.0], [2.0, 0.0]])
    B = np.array([[0.0], [-5.0]])
    C = np.array([[0.0, 1.0]])
    D = np.array([[-1.0]])
    L = solve_chang_lti(A, B, C, D, 0.01)
    slow, fast = block_margins(spring_cert(), A, B, L, D, 0.01)
    assert slow <= 0.0 and fast <= 0.0


def test_block_conditions_large_eps_infeasible():
    # at eps = 10 the fast-block residual is dominated by 2*L0*B = +10
    L0 = np.array([[0.0, -1.0]])
    A = np.array([[0.0, 1.0], [2.0, 0.0]])
    B = np.array([[0.0], [-5.0]])
    D = np.array([[-1.0]])
    _, fast = block_margins(spring_cert(), A, B, L0, D, 10.0)
    assert fast > 0.0
    assert fast == pytest.approx(-0.2 + 10.0 + 4.0 + 0.005)


def test_block_conditions_decoupled_reduce_to_certify_sp():
    cert = SPDominanceCertificate(P_r=np.eye(2), P_f=np.eye(2), lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    A = -2.0 * np.eye(2)
    D = -3.0 * np.eye(2)
    slow, fast = block_margins(cert, A, np.zeros((2, 2)), np.zeros((2, 2)), D, 1.0)
    sigma = 0.5  # common sigma = min(sigma_r, sigma_f)/2
    assert slow == pytest.approx(-4.0 + sigma)
    assert fast == pytest.approx(-6.0 + sigma)


def test_block_conditions_rejects_bad_eps():
    for eps_max in (0.0, float("nan")):
        with pytest.raises(NonpositiveEps):
            epsilon_star(*SPRING_HULL, spring_cert(), eps_max=eps_max)


def test_residual_affine_in_A():
    rng = np.random.default_rng(17)
    P = symmetric(P_R)
    A1 = rng.standard_normal((2, 2))
    A2 = rng.standard_normal((2, 2))
    for alpha in rng.uniform(0, 1, 5):
        mixed = lmi_residual(P, alpha * A1 + (1 - alpha) * A2, 2.0, 0.01)
        combo = alpha * lmi_residual(P, A1, 2.0, 0.01) \
            + (1 - alpha) * lmi_residual(P, A2, 2.0, 0.01)
        assert np.allclose(mixed, combo, atol=1e-12)


def test_hull_points_feasible_when_vertices_feasible():
    rng = np.random.default_rng(23)
    P = symmetric(P_R)
    for alpha in rng.uniform(0, 1, 5):
        A = alpha * np.array(M_LO) + (1 - alpha) * np.array(M_HI)
        assert eigvalsh_stack(lmi_residual(P, A, 2.0, 0.01))[-1] <= 1e-12


def test_margin_shift_in_sigma():
    base = certify_polytope(symmetric(P_R), vertex_stack([M_LO, M_HI]), 2.0, 0.01)
    shifted = certify_polytope(symmetric(P_R), vertex_stack([M_LO, M_HI]), 2.0, 0.51)
    assert shifted.worst_margin - base.worst_margin == pytest.approx(0.5, abs=1e-10)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lmi_residual(symmetric(np.eye(2)), np.eye(3), 0.0, 1.0)
    with pytest.raises(DimensionMismatch):
        certify_polytope(symmetric(np.eye(3)), vertex_stack([np.eye(2)]), 0.0, 1.0)
    with pytest.raises(DimensionMismatch, match=r"certificate blocks 2\+1 vs system 3\+1"):
        certify_sp(vertex_stack([np.eye(3)]), np.zeros((3, 1)), np.zeros((1, 3)),
                   vertex_stack([[[-1.0]]]), spring_cert())


def per_vertex_margin(P, A, lam, sigma):
    """The residual's largest eigenvalue for one vertex, formed as a single
    matrix and symmetrized through symmetric: the reference that the stacked
    lmi_residual must reproduce bit for bit."""
    return eigvalsh_stack(symmetric(P @ A + A.T @ P + 2.0 * lam * P + sigma * np.eye(len(P))))[-1]


def random_polytope_cases():
    rng = np.random.default_rng(2019)
    for n in range(1, 9):
        for k in range(1, 5):
            X = rng.standard_normal((n, n))
            P = symmetric(X + X.T)
            yield P, rng.standard_normal((k, n, n)), rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)
    P, vertices = symmetric(P_R), np.array([M_LO, M_HI, M_HI])
    vertices[1, 1, 0] = np.nan
    yield P, vertices, 2.0, 0.01


def test_certify_polytope_matches_per_vertex_reference():
    for P, vertices, lam, sigma in random_polytope_cases():
        res = certify_polytope(P, vertex_stack(vertices), lam, sigma)
        expect = [per_vertex_margin(P, A, lam, sigma) for A in vertices]
        assert np.array_equal(res.margins, expect, equal_nan=True)
        assert all(type(m) is float for m in res.margins)
        worst = int(np.argmax(expect))
        assert (res.worst_vertex, res.feasible) == (worst, bool(expect[worst] <= 0.0))
        assert np.array_equal(res.worst_margin, expect[worst], equal_nan=True)
    assert np.isnan(res.worst_margin) and res.worst_vertex == 1  # the NaN vertex is the worst


def test_lmi_residual_stack_is_the_residual_of_each_slice():
    for P, vertices, lam, sigma in random_polytope_cases():
        S = lmi_residual(P, vertices, lam, sigma)
        assert S.shape == vertices.shape
        for S_k, A in zip(S, vertices):
            assert np.array_equal(S_k, lmi_residual(P, A, lam, sigma), equal_nan=True)
            assert np.array_equal(S_k, S_k.T, equal_nan=True)


def test_one_eigvalsh_call_per_polytope(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    cert = spring_cert()
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    certify_polytope(P_R, vertex_stack([M_LO, M_HI, M_LO]), 2.0, 0.01)
    assert calls == [(3, 2, 2)]
    certify_sp(*SPRING_HULL, cert)
    assert calls[1:] == [(2, 2, 2), (1, 1, 1)]
