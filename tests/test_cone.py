import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdominance import analyze, systems
from spdominance.analyze import certificate_cone, monotone_probe
from spdominance.certify import SPDominanceCertificate, vertex_stack
from spdominance.cone import CONE_BOUNDARY_BAND, cone_ratio, make_cone
from spdominance.errors import (DegenerateCone, DimensionMismatch,
                                NotScalarParameterized, SingularP)
from spdominance.linalg import inertia, symmetric
from spdominance.systems import (LinearSPSystem, NonlinearSPSystem, jacobians,
                                 nonlinear_spring_certificate,
                                 nonlinear_spring_system)

P_R = [[-5.1987, 3.6260], [3.6260, 6.1987]]


def cone_locate(cone, v):
    """Reference classifier of one vector: "interior", "boundary" or "outside"
    as its cone_ratio lies below, within or above the band +-CONE_BOUNDARY_BAND,
    the rule by which the sampler and the probe classify whole stacks."""
    ratio = cone_ratio(cone, v)
    if ratio < -CONE_BOUNDARY_BAND:
        return "interior"
    return "boundary" if ratio <= CONE_BOUNDARY_BAND else "outside"


def test_make_cone_rank_one():
    assert inertia(make_cone(symmetric(np.diag([-1.0, 1.0]))))[0] == 1


def test_make_cone_warns_once_for_an_asymmetric_p():
    # inertia symmetrizes again, but symmetric's own output passes unwarned
    with pytest.warns(UserWarning, match="asymmetry") as record:
        cone = make_cone([[-5.1987, 3.6260], [3.6261, 6.1987]])
    assert len(record) == 1 and inertia(cone)[0] == 1


def test_make_cone_block_diag():
    P = np.zeros((3, 3))
    P[:2, :2] = P_R
    P[2, 2] = 1.0
    assert inertia(make_cone(symmetric(P)))[0] == 1


def test_make_cone_singular_rejected():
    with pytest.raises(SingularP):
        make_cone(symmetric(np.diag([1.0, 0.0])))


def test_make_cone_rank_zero_admitted():
    assert inertia(make_cone(symmetric(np.eye(3))))[0] == 0


def test_make_cone_negative_definite_rejected():
    with pytest.raises(DegenerateCone):
        make_cone(symmetric(-np.eye(2)))


def test_quad_form_examples():
    # cone_ratio(v) * ||v||^2 is the quadratic form v^T P v
    assert cone_ratio(make_cone(np.eye(2)), [3.0, 4.0]) * 25.0 == pytest.approx(25.0)
    assert cone_ratio(make_cone(np.diag([-1.0, 1.0])), [1.0, 1.0]) * 2.0 == \
        pytest.approx(0.0)
    assert cone_ratio(make_cone(P_R), [1.0, 0.0]) == pytest.approx(-5.1987)
    assert cone_ratio(make_cone(P_R), [0.0, 0.0]) == 0.0


def test_quad_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cone_ratio(make_cone(np.eye(2)), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        cone_ratio(make_cone(np.eye(2)), np.zeros((4, 3)))


def test_cone_locate_examples():
    cone = make_cone(symmetric(np.diag([-1.0, 1.0])))
    assert cone_locate(cone, [1.0, 0.0]) == "interior"
    assert cone_locate(cone, [0.0, 1.0]) == "outside"
    assert cone_locate(cone, [1.0, 1.0]) == "boundary"


def test_cone_locate_zero_vector_is_boundary():
    cone = make_cone(symmetric(np.diag([-1.0, 1.0])))
    assert cone_locate(cone, [0.0, 0.0]) == "boundary"


def test_cone_locate_symmetry_and_scale_invariance():
    cone = make_cone(symmetric(P_R))
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.standard_normal(2)
        loc = cone_locate(cone, v)
        assert cone_locate(cone, -v) == loc
        for alpha in (0.01, 3.0, -7.5):
            assert cone_locate(cone, alpha * v) == loc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       c=st.floats(1e-100, 1e100), negative=st.booleans())
def test_cone_ratio_invariant_under_scaling(seed, n, c, negative):
    # a cone of rank 1..n-1 with |eigenvalues| in [0.1, 10]
    rng = np.random.default_rng(seed)
    d = 10.0 ** rng.uniform(-1, 1, n)
    d[:rng.integers(1, n)] *= -1.0
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cone = make_cone(Q @ np.diag(d) @ Q.T)
    v = rng.standard_normal(n)
    c = -c if negative else c
    assert cone_ratio(cone, c * v) == pytest.approx(cone_ratio(cone, v), rel=0, abs=1e-12)


def test_negative_eigenspace_inside_cone():
    P = np.zeros((3, 3))
    P[:2, :2] = P_R
    P[2, 2] = 1.0
    cone = make_cone(symmetric(P))
    vals, vecs = np.linalg.eigh(cone)
    neg_dirs = vecs[:, vals < 0]
    rng = np.random.default_rng(9)
    for _ in range(30):
        v = neg_dirs @ rng.standard_normal(neg_dirs.shape[1])
        assert cone_locate(cone, v) in ("interior", "boundary")


def test_quad_form_matches_eigenbasis_sum():
    cone = make_cone(P_R)
    vals, vecs = np.linalg.eigh(cone)
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = rng.standard_normal(2)
        coeffs = vecs.T @ v
        expect = float(np.sum(vals * coeffs**2))
        assert cone_ratio(cone, v) * (v @ v) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_cone_locate_uses_relative_band():
    cone = make_cone(symmetric(np.diag([-1.0, 1.0])))
    # v^T P v = -2e-12 lies inside the band, -4 * CONE_BOUNDARY_BAND outside it,
    # whatever the scale of v
    v = np.array([1.0, 1.0 - 1e-12])
    w = np.array([1.0, 1.0 - 2 * CONE_BOUNDARY_BAND])
    for scale in (1.0, 1e6):
        assert cone_locate(cone, scale * v) == "boundary"
        assert cone_locate(cone, scale * w) == "interior"


# -- the certificate cone in decoupled coordinates -----------------------------

def test_certificate_cone_spring_is_decoupled():
    # spring: C = [0, 1], D = [-1], so L0 = D^-1 C = [0, -1] and T0^-1 maps
    # z to z - x2, the distance from the slow manifold z = x2
    T0_inv = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    blk = np.zeros((3, 3))
    blk[:2, :2] = P_R
    blk[2, 2] = 1.0
    cone = certificate_cone(nonlinear_spring_system(), nonlinear_spring_certificate())
    np.testing.assert_allclose(cone, T0_inv.T @ blk @ T0_inv, atol=1e-15)
    assert inertia(cone) == (1, 0, 2)

    rng = np.random.default_rng(21)
    for _ in range(20):
        dx = rng.standard_normal(2)
        on_manifold = np.array([dx[0], dx[1], dx[1]])  # no fast deviation
        assert on_manifold @ cone @ on_manifold == pytest.approx(
            dx @ np.array(P_R) @ dx, rel=1e-12, abs=1e-12)


def test_certificate_cone_linear_uses_fixed_blocks():
    # C = [2], D = [-4]: L0 = -0.5, T0^-1 = [[1, 0], [-0.5, 1]]
    sys_ = LinearSPSystem(A=[[-1.0]], B=[[1.0]], C=[[2.0]], D=[[-4.0]], eps=0.1)
    cert = SPDominanceCertificate(P_r=[[-1.0]], P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=0.5, sigma_f=1.0, p=1)
    T0_inv = np.array([[1.0, 0.0], [-0.5, 1.0]])
    expect = T0_inv.T @ np.diag([-1.0, 1.0]) @ T0_inv
    np.testing.assert_allclose(certificate_cone(sys_, cert), expect, atol=1e-15)


def test_certificate_cone_rejects_varying_fast_block():
    sys_ = NonlinearSPSystem(1, 1, ["-x1 + z1"], ["x1 - z1 - z1^3"], 0.1,
                             {"x1": (-1.0, 1.0), "z1": (-1.0, 1.0)})
    cert = SPDominanceCertificate(P_r=[[-1.0]], P_f=[[1.0]], lambda_r=0.0,
                                  lambda_f=0.0, sigma_r=0.5, sigma_f=1.0, p=1)
    with pytest.raises(NotScalarParameterized):
        certificate_cone(sys_, cert)


@pytest.mark.parametrize("seed", [7, 123])  # seed 42 is acceptance criterion 6
def test_probe_stays_in_decoupled_cone(seed):
    probe = monotone_probe(nonlinear_spring_system(eps=0.01),
                           nonlinear_spring_certificate(), n_pairs=100,
                           t_final=9.0, seed=seed)
    assert probe["total_classifications"] == 20_000
    assert probe["outside"] == 0 and probe["boundary_warnings"] == 0
    run = probe["integrator"]
    assert (run["method"], run["tol"]) == ("dop853", 1e-10)
    assert run["rhs_evals"] == 1 + 12 * run["steps"] + 11 * run["rejected"]


def test_probe_locates_worst_margin(monkeypatch):
    # one difference planted along the cone's positive direction is the worst
    sys_, cert = nonlinear_spring_system(), nonlinear_spring_certificate()
    outward = np.linalg.eigh(certificate_cone(sys_, cert))[1][:, 2]
    integrate = analyze.integrate
    stored = {}

    def integrate_and_plant(*args):
        times, states, stats = integrate(*args)
        states[7, 6] = states[7, 7] + 0.1 * outward
        stored["states"] = states
        return times, states, stats

    monkeypatch.setattr(analyze, "integrate", integrate_and_plant)
    probe = monotone_probe(sys_, cert, n_pairs=5, t_final=1.0, seed=42)
    assert probe["worst_margin_at"] == {
        "pair": 3, "t": 7 * 1.0 / 200,
        "initial_states": stored["states"][0, 6:8].tolist()}


def test_probe_riders_share_its_run():
    # riders step in the probe's batch, unclassified, on its sample grid
    sys_, cert = nonlinear_spring_system(), nonlinear_spring_certificate()
    alone = monotone_probe(sys_, cert, n_pairs=5, t_final=1.0, seed=42)
    riders = [[1.0, 1.0, 1.0], [0.25, 0.5, -1.0]]
    probe = monotone_probe(sys_, cert, n_pairs=5, t_final=1.0, seed=42, riders=riders)
    times, states, stats = probe.pop("riders")
    assert probe == alone
    assert stats is probe["integrator"]
    assert times.tolist() == [k * 1.0 / 200 for k in range(201)]
    assert states.shape == (201, 2, 3) and states[0].tolist() == riders


def test_probe_computes_l0_once(monkeypatch):
    # one reduced_model call, the system's L0, gives the report's L0 and the cone's matrix
    sys_, cert = nonlinear_spring_system(), nonlinear_spring_certificate()
    calls = []
    reduced_model = systems.reduced_model
    monkeypatch.setattr(systems, "reduced_model", lambda *a: calls.append(a) or reduced_model(*a))
    probe = monotone_probe(sys_, cert, n_pairs=2, t_final=0.1, seed=42)
    assert len(calls) == 1
    monkeypatch.undo()
    fresh = nonlinear_spring_system()  # derives its own L0
    L0 = reduced_model(*jacobians(fresh, fresh.omega_center()))[0]
    assert probe["cone"]["L0"] == L0.tolist()
    assert probe["cone"]["matrix"] == certificate_cone(fresh, cert).tolist()


def test_probe_counts_match_cone_locate(monkeypatch):
    # the probe's one cone_ratio call over every stored difference counts as
    # cone_locate does vector by vector; one zero, one nonzero boundary and
    # one outside difference are planted in the integrated states
    sys_, cert = nonlinear_spring_system(), nonlinear_spring_certificate()
    cone = certificate_cone(sys_, cert)
    vals, vecs = np.linalg.eigh(cone)
    on_boundary = vecs[:, 0] / np.sqrt(-vals[0]) + vecs[:, 2] / np.sqrt(vals[2])
    integrate = analyze.integrate
    stored = {}

    def integrate_and_plant(*args):
        times, states, stats = integrate(*args)
        states[3, 0] = states[3, 1]
        states[4, 2] = states[4, 3] + 0.1 * on_boundary
        states[5, 4] = states[5, 5] + 0.1 * vecs[:, 2]
        stored["states"] = states
        return times, states, stats

    monkeypatch.setattr(analyze, "integrate", integrate_and_plant)
    probe = monotone_probe(sys_, cert, n_pairs=5, t_final=1.0, seed=42)
    diffs = stored["states"][1:, 0::2] - stored["states"][1:, 1::2]
    locs = [cone_locate(cone, d) for d in diffs.reshape(-1, 3)]
    assert locs.count("boundary") == 2 and locs.count("outside") == 1
    assert (probe["interior"], probe["boundary_warnings"], probe["outside"]) == (
        locs.count("interior"), locs.count("boundary"), locs.count("outside"))
    assert probe["total_classifications"] == len(locs) == 200 * 5
    assert probe["worst_quadform_margin"] == pytest.approx(vals[2])

    batch = np.random.default_rng(3).standard_normal((4, 5, 3))
    batch[2, 1] = 0.0
    ratios = cone_ratio(cone, batch)
    assert ratios.shape == (4, 5) and ratios[2, 1] == 0.0
    for idx in np.ndindex(4, 5):
        v = batch[idx]
        expect = v @ cone @ v / (v @ v) if v.any() else 0.0
        assert ratios[idx] == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_matrices_are_read_only_symmetric_arrays():
    cert = nonlinear_spring_certificate()
    cone = certificate_cone(nonlinear_spring_system(), cert)
    for P in (cert.P_r, cert.P_f, cone, make_cone(P_R)):
        assert type(P) is np.ndarray and not P.flags.writeable
        assert np.array_equal(P, P.T)
    stack = vertex_stack([[[0.0, 1.0], [-5.0, -5.0]]])
    assert stack.shape == (1, 2, 2) and not stack.flags.writeable
    assert inertia(P_R) == (1, 0, 1)
