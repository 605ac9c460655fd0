"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and pins its own tolerances; `pytest -v` prints
one pass/fail line per criterion. Runtime budgets are asserted where the
computation is heavy.
"""

import json
import time

import numpy as np
import pytest

from spdominance.analyze import certificate_cone, monotone_probe
from spdominance.certify import (SPDominanceCertificate, certify_polytope,
                                 lmi_residual, vertex_stack)
from spdominance.cli import build_certificate, build_system, main
from spdominance.decouple import (build_decoupling, certify_sp, epsilon_star,
                                  full_system_matrix, reduced_model,
                                  solve_chang_lti)
from spdominance.errors import InfeasibleAtFloor
from spdominance.expressions import compile_field
from spdominance.integrate import (Trajectory, detect_convergence,
                                   find_equilibria, integrate,
                                   integrate_variational, make_rhs)
from spdominance.linalg import eigvalsh_stack, inertia, symmetric
from spdominance.systems import (LinearSPSystem, NonlinearSPSystem,
                                 SPRING_INITIAL_CONDITIONS, jacobian_hull, jacobians,
                                 nonlinear_spring_certificate, nonlinear_spring_system,
                                 spring_config)

from test_decouple import scalar_epsilon_star
from test_integrate import bisection_root, rk4_run
from test_linalg import quad_eig_oracle

P_R = [[-5.1987, 3.6260], [3.6260, 6.1987]]
M_LO = [[0.0, 1.0], [-5.0, -5.0]]
M_HI = [[0.0, 1.0], [2.0, -5.0]]


def test_criterion_1_worked_example_certificate():
    start = time.perf_counter()
    P = symmetric(P_R)
    for M in (M_LO, M_HI):
        S = lmi_residual(P, M, 2.0, 0.01)
        margin = eigvalsh_stack(S)[-1]
        assert margin <= 1e-9
        assert margin == pytest.approx(quad_eig_oracle(S)[-1], abs=1e-12)
    fast = lmi_residual(symmetric([[1.0]]), [[-1.0]], 0.5, 1.0)
    assert eigvalsh_stack(fast)[-1] == pytest.approx(0.0, abs=1e-12)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_inertia():
    assert inertia(symmetric(P_R)) == (1, 0, 1)
    block = np.zeros((3, 3))
    block[:2, :2] = P_R
    block[2, 2] = 1.0
    assert inertia(symmetric(block)) == (1, 0, 2)


def test_criterion_3_chang_solver():
    start = time.perf_counter()
    L = solve_chang_lti([[0.0]], [[1.0]], [[1.0]], [[-1.0]], 0.1)
    assert abs(L[0, 0] - (1.0 - np.sqrt(1.4)) / 0.2) <= 1e-10

    rng = np.random.default_rng(314)
    for _ in range(20):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2))
        D = rng.standard_normal((2, 2))
        D = -(D @ D.T) - np.eye(2)
        dec = build_decoupling(A, B, C, D, 0.01)
        assert np.linalg.det(dec.T_inv) == pytest.approx(1.0, abs=1e-9)
        M = full_system_matrix(A, B, C, D, 0.01)
        Md = dec.T_inv @ M @ dec.T
        assert max(np.linalg.norm(Md[:2, 2:]), np.linalg.norm(Md[2:, :2])) <= 1e-8

    A = np.array([[0.0, 1.0], [2.0, 0.0]])
    B = np.array([[0.0], [-5.0]])
    C = np.array([[0.0, 1.0]])
    D = np.array([[-1.0]])
    L0, _, _ = reduced_model(A, B, C, D)
    ratios = [np.linalg.norm(solve_chang_lti(A, B, C, D, e) - L0) / e
              for e in (1e-2, 1e-3, 1e-4)]
    assert max(ratios) < 100.0
    assert time.perf_counter() - start < 5.0


def test_criterion_4_eps_threshold_search():
    start = time.perf_counter()
    cert = nonlinear_spring_certificate()
    A_poly = vertex_stack([[[0.0, 1.0], [-5.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]])
    eps_hat, _ = epsilon_star(A_poly, [[0.0], [-5.0]], [[0.0, 1.0]],
                              vertex_stack([[[-1.0]]]), cert)
    assert eps_hat >= 0.01

    flat = SPDominanceCertificate(P_r=np.eye(2), P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=1.0, sigma_f=1.0, p=0)
    assert epsilon_star(vertex_stack([-np.eye(2)]), np.zeros((2, 1)),
                        np.zeros((1, 2)), vertex_stack([[[-2.0]]]),
                        flat)[0] == pytest.approx(1.0)
    with pytest.raises(InfeasibleAtFloor):
        epsilon_star(vertex_stack([-np.eye(2)]), np.zeros((2, 1)),
                     np.zeros((1, 2)), vertex_stack([[[1.0]]]), flat)
    assert time.perf_counter() - start < 10.0


def test_criterion_5_simulation_reproduction():
    start = time.perf_counter()
    sys_ = nonlinear_spring_system(eps=0.01)
    equilibria = find_equilibria(sys_)
    assert len(equilibria) == 3
    xstar = bisection_root(lambda x: 7 * np.tanh(x) - 5 * x, 1.0, 1.4)
    xs = sorted(q[0] for q in equilibria)
    assert xs[0] == pytest.approx(-xstar, abs=1e-8)
    assert xs[2] == pytest.approx(xstar, abs=1e-8)

    # Horizon: the slowest Jacobian eigenvalue at the stable equilibria
    # +/- x* is lambda_slow = -0.596 (the others are -94.7 and -4.68), and
    # the exact solution is still up to 2.2e-2 from its equilibrium at the
    # paper's t = 9. detect_convergence also bounds the variation over the
    # final quarter [3T/4, T], which is about the distance at 3T/4. So
    # 2.2e-2 * exp(-0.596 * (3T/4 - 9)) < 1e-3 needs 3T/4 > 14.2, T > 18.9;
    # T = 20 starts the tail at t = 15, where that bound is ~6e-4.
    h = 0.01 / 20
    t_paper, t_final = 9.0, 20.0
    ics = np.array(SPRING_INITIAL_CONDITIONS)
    times, states = rk4_run(make_rhs(sys_), ics, (0, t_final), h)
    verdicts = []
    for j in range(len(ics)):
        traj = Trajectory(times, states[:, j, :])
        verdicts.append(detect_convergence(traj, equilibria))
    assert time.perf_counter() - start < 60.0
    assert all(v is not None for v in verdicts), \
        f"unconverged initial conditions: {[i for i, v in enumerate(verdicts) if v is None]}"

    # the paper's horizon: RK4 states at t = 9 against a tight Radau solve
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    k = int(round(t_paper / h))
    assert times[k] == pytest.approx(t_paper, abs=1e-9)

    def spring(t, s):
        x1, x2, z = s
        return [x2, 7 * np.tanh(x1) - 5 * x1 - 5 * z, (x2 - z) / 0.01]

    for j, ic in enumerate(ics):
        ref = solve_ivp(spring, (0.0, t_paper), ic, method="Radau",
                        rtol=1e-11, atol=1e-13)
        assert ref.success
        assert np.abs(states[k, j] - ref.y[:, -1]).max() <= 1e-6


def test_criterion_6_monotonicity_probe():
    start = time.perf_counter()
    sys_ = nonlinear_spring_system(eps=0.01)
    cert = nonlinear_spring_certificate()
    probe = monotone_probe(sys_, cert, n_pairs=100, t_final=9.0, seed=42)
    assert time.perf_counter() - start < 120.0
    total = probe["total_classifications"]
    assert probe["boundary_warnings"] <= 0.01 * total
    assert probe["outside"] == 0, \
        f"{probe['outside']} of {total} classifications left the cone"


def test_rank_2_cone_end_to_end():
    # the paper's k = 2 case: a slow oscillator 0.5 +- i beside a slow mode -3,
    # one fast mode, and a certificate of inertia (2, 0, 2) over all four states
    start = time.perf_counter()
    sys_ = LinearSPSystem(A=[[0.5, -1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, -3.0]],
                          B=[[0.0], [0.0], [2.0]], C=[[0.0, 0.0, -2.0]], D=[[-5.0]],
                          eps=0.05)
    block = dict(P_r=np.diag([-1.0, -1.0, 1.0]), P_f=[[1.0]], lambda_r=1.0, lambda_f=1.0,
                 sigma_r=0.5, sigma_f=1.0)
    with pytest.raises(ValueError, match="inertia"):
        SPDominanceCertificate(**block, p=1)
    cert = SPDominanceCertificate(**block, p=2)
    slow, fast = certify_sp(*jacobian_hull(sys_), cert)
    assert (slow.worst_margin, fast.worst_margin) == pytest.approx((-2.5, -7.0), abs=1e-12)
    eps_hat, violations = epsilon_star(*jacobian_hull(sys_), cert)
    assert 0.05 < eps_hat < 1.0 and violations == []  # below eps_max: the search bisects
    assert eps_hat == pytest.approx(0.618267136204145, rel=1e-12, abs=0)
    assert eps_hat == pytest.approx(scalar_epsilon_star(*jacobian_hull(sys_), cert),
                                    rel=1e-12, abs=0)
    assert inertia(certificate_cone(sys_, cert))[0] == 2
    probe = monotone_probe(sys_, cert, n_pairs=20)
    assert probe["interior"] == probe["total_classifications"] == 4000 and probe["passed"]
    assert time.perf_counter() - start < 10.0


# this repo's nonlinear k = 2 example, not the paper's (whose worked example is
# the k = 1 spring): A[0, 0] and A[1, 1] both vary, each enclosed to about
# [-1.4803, 0.5] over omega, so the Jacobian hull has 4 corners
RANK_2_NONLINEAR_CONFIG = {
    "spec_version": 1, "kind": "nonlinear", "n_r": 3, "n_f": 1, "eps": 0.02,
    "f": ["2*tanh(x1) - 1.5*x1 - x2 + 0.5*z1", "x1 + 2*tanh(x2) - 1.5*x2", "x1 - 3*x3"],
    "g": ["x2 - z1"],
    "omega": {name: [-3.0, 3.0] for name in ("x1", "x2", "x3", "z1")},
    "certificate": {"P_r": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                    "P_f": [[1.0]], "lambda_r": 2.0, "lambda_f": 0.5,
                    "sigma_r": 0.1, "sigma_f": 0.5, "p": 2},
}


def test_rank_2_nonlinear_example(tmp_path):
    path, report = tmp_path / "config.json", tmp_path / "rep.json"
    path.write_text(json.dumps(RANK_2_NONLINEAR_CONFIG))
    sys_ = build_system(RANK_2_NONLINEAR_CONFIG)
    cert = build_certificate(RANK_2_NONLINEAR_CONFIG)
    assert len(jacobian_hull(sys_)[0]) == 4
    assert main(["certify", str(path), "--report", str(report)]) == 0
    rep = json.loads(report.read_text())["certificate"]
    assert (rep["slow"]["worst_margin"], rep["fast"]["worst_margin"]) == pytest.approx(
        (-0.09161849673583634, -0.5), rel=1e-12, abs=0)
    assert main(["epsilon-star", str(path), "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["epsilon_star"] == pytest.approx(0.09813095992690334, rel=1e-12, abs=0)
    assert rep["monotone_violations"] == []
    assert inertia(certificate_cone(sys_, cert))[0] == 2


LINEAR_RANK_1_CONFIG = {
    "spec_version": 1, "kind": "linear", "A": [[-1.0]], "B": [[1.0]], "C": [[2.0]],
    "D": [[-4.0]], "eps": 0.1,
    "certificate": {"P_r": [[-1.0]], "P_f": [[1.0]], "lambda_r": 0.0, "lambda_f": 0.0,
                    "sigma_r": 0.5, "sigma_f": 1.0, "p": 1},
}


@pytest.mark.parametrize("cfg, rank", [(spring_config(), 1), (RANK_2_NONLINEAR_CONFIG, 2),
                                       (LINEAR_RANK_1_CONFIG, 1)],
                         ids=["spring", "rank-2-nonlinear", "linear"])
def test_probe_rank_is_its_cone_inertia(cfg, rank):
    # the report's rank_k is the certificate's p; by Sylvester's law it is the
    # count of negative eigenvalues of the cone matrix the probe samples with
    sys_, cert = build_system(cfg), build_certificate(cfg)
    probe = monotone_probe(sys_, cert, n_pairs=2, t_final=0.1)
    assert probe["cone"]["rank_k"] == inertia(certificate_cone(sys_, cert))[0] == cert.p == rank


def test_criterion_7_lyapunov_decrease():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        n = 3
        G = rng.standard_normal((n, n))
        A = -(G @ G.T) - np.eye(n)
        # P from the Kronecker-vectorized Lyapunov equation A^T P + P A = -I
        K = np.kron(np.eye(n), A.T) + np.kron(A.T, np.eye(n))
        P = np.linalg.solve(K, -np.eye(n).flatten(order="F")).reshape(
            (n, n), order="F")
        P = 0.5 * (P + P.T)
        sigma = 0.5
        cert = certify_polytope(symmetric(P), vertex_stack([A]), 0.0, sigma)
        assert cert.feasible

        sys_ = NonlinearSPSystem(
            n, 0,
            [" + ".join(f"{float(A[i, j])!r}*x{j + 1}" for j in range(n))
             for i in range(n)],
            [], 1.0, {f"x{i + 1}": (-10.0, 10.0) for i in range(n)})
        times, states = rk4_run(make_rhs(sys_), rng.uniform(-1, 1, n), (0, 3), 1e-3)
        V = np.einsum("ti,ij,tj->t", states, P, states)
        dt = times[1] - times[0]
        dV = (V[2:] - V[:-2]) / (2 * dt)
        norms = np.einsum("ti,ti->t", states, states)[1:-1]
        assert np.max(dV + sigma * norms) <= 1e-6


def test_criterion_8_oracle_equivalences():
    # symbolic Jacobians vs centered finite differences
    sys_ = nonlinear_spring_system()
    rng = np.random.default_rng(99)
    step = 1e-6
    field = compile_field(sys_.f + sys_.g, sys_.names)
    for _ in range(10):
        pt = rng.uniform(-1.5, 1.5, 3)
        A, B, C, D = jacobians(sys_, pt)
        J = np.block([[A, B], [C, D]])
        for c, h in enumerate(step * np.eye(3)):
            num = (field(pt + h) - field(pt - h)) / (2 * step)
            assert J[:, c] == pytest.approx(num, rel=1e-5, abs=1e-5)

    # variational trajectory vs two-trajectory finite difference
    x0 = np.array([1.0, 1.0, 1.0])
    d0 = np.array([0.2, -0.1, 0.3])
    scale = 1e-6
    vt = integrate_variational(sys_, x0, d0, (0, 5))
    _, states, _ = integrate(sys_, [x0, x0 + scale * d0], (0, 5),
                             sample_times=vt.base.times[1:])
    fd = (states[:, 1] - states[:, 0]) / scale
    assert np.abs(vt.delta_states - fd).max() / np.abs(fd).max() <= 1e-3

    # RK4 order on the scalar exponential
    decay = NonlinearSPSystem(1, 0, ["-x1"], [], 1.0, {"x1": (-3, 3)})
    errs = [abs(rk4_run(make_rhs(decay), [1.0], (0, 1), h)[1][-1, 0] - np.exp(-1.0))
            for h in (0.1, 0.05)]
    assert 14.0 <= errs[0] / errs[1] <= 18.0
