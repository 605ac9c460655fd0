import itertools
import pathlib
import warnings

import numpy as np
import pytest

from spdominance import systems
from spdominance.analyze import monotone_probe
from spdominance.cli import build_certificate, build_system
from spdominance.decouple import epsilon_star, reduced_model
from spdominance.errors import NonpositiveEps, NotScalarParameterized
from spdominance.expressions import compile_field, guarded, interval
from spdominance.integrate import find_equilibria, integrate, integrate_variational
from spdominance.systems import (MAX_HULL_ENTRIES, LinearSPSystem, NonlinearSPSystem,
                                 damped_newton, jacobian_hull, jacobians,
                                 nonlinear_spring_certificate, nonlinear_spring_system,
                                 spring_config)

BOX3 = {"x1": (-3.0, 3.0), "x2": (-3.0, 3.0), "z1": (-3.0, 3.0)}
SLOPE_LO = 7 * (1 - np.tanh(3.0) ** 2) - 5  # d/dx1 [7 tanh(x1) - 5 x1] at x1 = +-3


def test_spring_jacobians():
    sys_ = nonlinear_spring_system()
    A, B, C, D = jacobians(sys_, [0.7, -0.4, 0.2])
    vprime = 7 * (1 - np.tanh(0.7) ** 2) - 5
    assert np.allclose(A, [[0, 1], [vprime, 0]])
    assert np.allclose(B, [[0], [-5]])
    assert np.allclose(C, [[0, 1]])
    assert np.allclose(D, [[-1]])


def test_jacobian_kernel_compiled_once_per_system(monkeypatch):
    sys_, other = nonlinear_spring_system(), nonlinear_spring_system()
    compiled = []

    def counting_compile_field(*args):
        compiled.append(args)
        return compile_field(*args)

    monkeypatch.setattr(systems, "compile_field", counting_compile_field)
    first = jacobians(sys_, [0.7, -0.4, 0.2])
    for _ in range(3):
        again = jacobians(sys_, [0.7, -0.4, 0.2])
    jacobians(sys_, np.zeros(3))
    assert len(compiled) == 1
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    jacobians(other, np.zeros(3))  # another system compiles its own
    assert len(compiled) == 2


def test_each_kernel_and_l0_derived_once_per_system(monkeypatch):
    # every check and run of the spring, twice over, reads what its system
    # derived once: four compiled kernels ((f, g), the Jacobian, the derivative
    # and the variational kernel) and one L0; another system derives its own
    compiled, reduced = [], []
    compile_field, reduced_model = systems.compile_field, systems.reduced_model
    monkeypatch.setattr(systems, "compile_field", lambda *a: compiled.append(a) or compile_field(*a))
    monkeypatch.setattr(systems, "reduced_model", lambda *a: reduced.append(a) or reduced_model(*a))
    sys_, cert = nonlinear_spring_system(), nonlinear_spring_certificate()
    for _ in range(2):
        epsilon_star(*jacobian_hull(sys_), cert)
        monotone_probe(sys_, cert, n_pairs=2, t_final=0.1, riders=[[1.0, 1.0, 1.0]])
        find_equilibria(sys_)
        integrate(sys_, [[1.0, 1.0, 1.0]], (0.0, 0.1))
        integrate_variational(sys_, [1.0, 1.0, 1.0], [0.1, 0.0, 0.0], (0.0, 0.1))
    assert len(compiled) == 4
    assert len(reduced) == 1
    monotone_probe(nonlinear_spring_system(), cert, n_pairs=2, t_final=0.1)
    assert (len(compiled), len(reduced)) == (7, 2)  # (f, g), Jacobian, derivative


@pytest.mark.parametrize("g", [" + ".join(["x2"] * 194) + " - 195*z1",
                               "tanh(" * 95 + "x2" + ")" * 95 + " - z1"], ids=["sum-195", "tanh-95"])
def test_deep_expressions_compile_every_kernel(g):
    # well inside MAX_NESTING: each of the four kernels compiles and evaluates
    sys_ = NonlinearSPSystem(2, 1, ["x2", "7*tanh(x1) - 5*x1 - 5*z1"], [g], 0.01, BOX3)
    state = np.array([0.5, -0.25, 0.125])
    assert np.isfinite(sys_.field(state)).all()
    assert np.isfinite(sys_.jacobian_kernel(state)).all()
    assert np.isfinite(sys_.derivative_kernel(state)).all()
    assert np.isfinite(sys_.variational_kernel(np.tile(state, 2))).all()


def test_linear_system_encoded_as_dsl_has_constant_jacobians():
    sys_ = NonlinearSPSystem(2, 1, ["x2", "-2*x1 - 3*x2 + z1"], ["-x1 - z1"],
                             0.1, BOX3)
    rng = np.random.default_rng(3)
    ref = jacobians(sys_, np.zeros(3))
    for _ in range(5):
        blocks = jacobians(sys_, rng.uniform(-2, 2, 3))
        for got, want in zip(blocks, ref):
            assert np.allclose(got, want)


def test_jacobians_vs_finite_differences():
    sys_ = NonlinearSPSystem(2, 1, ["sin(x1) * x2", "tanh(x1) - x2^2 + z1"],
                             ["x2 - z1^3 - z1"], 0.1, BOX3)
    rng = np.random.default_rng(5)
    step = 1e-6
    field = compile_field(sys_.f + sys_.g, sys_.names)
    for _ in range(10):
        pt = rng.uniform(-1.5, 1.5, 3)
        A, B, C, D = jacobians(sys_, pt)
        J = np.block([[A, B], [C, D]])
        for c, h in enumerate(step * np.eye(3)):
            num = (field(pt + h) - field(pt - h)) / (2 * step)
            assert J[:, c] == pytest.approx(num, rel=1e-5, abs=1e-5)


def test_scalar_hull_spring_vertices():
    A_vertices, B, C, D_vertices = jacobian_hull(nonlinear_spring_system())
    hull = [reduced_model(A, B, C, D_vertices[0])[2] for A in A_vertices]
    assert len(hull) == 2
    assert np.allclose(hull[0], [[0, 1], [SLOPE_LO, -5]], rtol=0, atol=1e-12)
    assert np.allclose(hull[1], [[0, 1], [2, -5]], rtol=0, atol=1e-12)


def test_scalar_hull_constant_system_single_vertex():
    sys_ = NonlinearSPSystem(2, 1, ["x2", "-2*x1 - 3*x2 + z1"], ["-x1 - z1"],
                             0.1, BOX3)
    hull, _, _, _ = jacobian_hull(sys_)
    assert len(hull) == 1


def test_jacobian_hull_corners_in_product_order():
    # A = [[0, 2 x2], [1 - tanh(x1)^2, 0]]: two varying entries, four corners,
    # each varying entry at an end of its enclosure, the rest as at the center
    sys_ = NonlinearSPSystem(2, 1, ["x2 * x2", "tanh(x1)"], ["x2 - z1"], 0.1, BOX3)
    hull, B, C, D = jacobian_hull(sys_)
    jac = sys_.jacobian_asts["A"]
    ends = [interval(jac[0][1], sys_.omega), interval(jac[1][0], sys_.omega)]
    assert ends[0][0] < ends[0][1] and ends[1][0] < ends[1][1]
    center = jacobians(sys_, sys_.omega_center())
    varying = np.array([[False, True], [True, False]])
    assert len(hull) == 4
    for corner, (a01, a10) in zip(hull, itertools.product(*ends)):
        assert (corner[0, 1], corner[1, 0]) == (a01, a10)
        assert np.array_equal(corner[~varying], center[0][~varying])
    for got, want in zip((B, C, D[0]), center[1:]):
        assert np.array_equal(got, want)


def test_jacobian_hull_rejects_more_than_max_entries():
    # every entry of the 3 x 3 A block is 2 x_j: 9 varying entries
    f = ["x1^2 + x2^2 + x3^2"] * 3
    box = {name: (-1.0, 1.0) for name in ("x1", "x2", "x3", "z1")}
    sys_ = NonlinearSPSystem(3, 1, f, ["x1 - z1"], 0.1, box)
    assert MAX_HULL_ENTRIES == 8
    with pytest.raises(NotScalarParameterized, match="9 varying"):
        jacobian_hull(sys_)


def test_sampled_bounds_within_analytic_range():
    # the entry sampled over omega lies in its enclosure, inside the range (-5, 2]
    sys_ = nonlinear_spring_system()
    entry = sys_.jacobian_asts["A"][1][0]
    lo, hi = interval(entry, sys_.omega)
    samples = compile_field([entry], ["x1"])(np.linspace(-3.0, 3.0, 1001)[:, None])
    assert -5.0 < lo <= samples.min() and samples.max() <= hi < 2.0 + 1e-12


def test_damped_newton_contract():
    # rows of x^2 = 4: the seed 3 converges, the seed 0 has a singular
    # Jacobian and, in one step, the seed 3 misses tol; a failed row is NaN.
    # fun and jac take a state or a batch, for the reference loop and the batch
    def fun(x):
        return x ** 2 - 4.0

    def jac(x):
        return 2.0 * x[..., None]

    x0 = np.array([[3.0], [0.0]])
    root = damped_newton(fun, jac, x0, 1e-12, 50)
    assert root[0, 0] == pytest.approx(2.0, abs=1e-12) and np.isnan(root[1, 0])
    assert x0.tolist() == [[3.0], [0.0]]
    assert np.isnan(damped_newton(fun, jac, [[3.0]], 1e-12, 1)).all()
    with pytest.raises(NewtonFailure, match="singular"):
        scalar_damped_newton(fun, jac, x0[1], 1e-12, 50)
    with pytest.raises(NewtonFailure, match="tolerance"):
        scalar_damped_newton(fun, jac, x0[0], 1e-12, 1)


class NewtonFailure(RuntimeError):
    """The reference loop's failure, with why it failed."""


def scalar_damped_newton(fun, jac, x, tol, max_iter):
    """The one-seed damped Newton loop that the batched damped_newton
    replaced, the reference its rows are held to bit for bit."""
    x = np.array(x, dtype=float)
    res = fun(x)
    for k in range(max_iter + 1):
        nrm = np.linalg.norm(res)
        if nrm <= tol:
            return x
        if k == max_iter:
            raise NewtonFailure(f"Newton did not reach tolerance; residual {nrm:.2e}")
        try:
            step = np.linalg.solve(jac(x), res)
        except np.linalg.LinAlgError as e:
            raise NewtonFailure(f"singular Jacobian at {x}") from e
        alpha = 1.0
        for _ in range(30):
            cand = x - alpha * step
            res_new = fun(cand)
            if np.linalg.norm(res_new) < nrm:
                break
            alpha *= 0.5
        else:
            raise NewtonFailure(f"no descent from {x} (residual {nrm:.2e})")
        x, res = cand, res_new


NEWTON_SYSTEMS = {
    "spring": nonlinear_spring_system,
    # f' = 3 x^2 - 3 vanishes at the seeds x = +-1: singular Jacobians
    "cubic": lambda: NonlinearSPSystem(1, 0, ["x1^3 - 3*x1"], [], 1.0, {"x1": (-1, 1)}),
    # 54 of its 125 seeds find no descent
    "coupled": lambda: NonlinearSPSystem(
        2, 1, ["x2", "sin(x1) - x2 + z1"], ["x1 - z1^3 + 0.5*z1"], 0.1,
        {"x1": (-3, 3), "x2": (-3, 3), "z1": (-2, 2)}),
}


@pytest.mark.parametrize("name, max_iter", [("spring", 100), ("spring", 3),
                                            ("cubic", 100), ("coupled", 100)])
def test_damped_newton_batch_matches_scalar_loop(name, max_iter):
    # find_equilibria's seed grid as one batch: each row ends bit for bit where
    # the scalar loop ends from its seed, and a seed it fails on comes back NaN,
    # in the batch and in a batch of one
    sys_ = NEWTON_SYSTEMS[name]()
    axes = [np.linspace(*sys_.omega[n], 5) for n in sys_.names]
    seeds = np.array(list(itertools.product(*axes)))
    field = guarded(compile_field(sys_.f + sys_.g, sys_.names))
    jac = sys_.jacobian_kernel
    roots = damped_newton(field, jac, seeds, 1e-10, max_iter)
    assert roots.shape == seeds.shape
    for seed, root in zip(seeds, roots):
        try:
            ref = scalar_damped_newton(field, jac, seed, 1e-10, max_iter)
        except NewtonFailure:
            ref = np.full(len(seed), np.nan)
        alone = damped_newton(field, jac, seed[None], 1e-10, max_iter)[0]
        assert root.tobytes() == alone.tobytes() == ref.tobytes()


def test_damped_newton_masks_singular_and_nan_rows():
    # x^2 = 4 in each component, in one batch: the seed (0, 1) has an exactly
    # singular Jacobian and (nan, 1) a NaN one; both come back NaN, without a
    # warning, and the other rows end bit for bit where the scalar loop does
    def fun(x):
        return x ** 2 - 4.0

    def jac(x):
        return 2.0 * x[..., None] * np.eye(x.shape[-1])

    seeds = np.array([[3.0, 1.0], [0.0, 1.0], [np.nan, 1.0], [-1.0, 5.0], [0.5, -0.25]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = damped_newton(fun, jac, seeds, 1e-12, 50)
    for k in (0, 3, 4):
        assert roots[k].tobytes() == scalar_damped_newton(fun, jac, seeds[k], 1e-12, 50).tobytes()
    assert np.isnan(roots[1:3]).all()
    with pytest.raises(NewtonFailure, match="singular"):
        scalar_damped_newton(fun, jac, seeds[1], 1e-12, 50)


def test_solve_manifold_no_real_root():
    # z^2 + 0.5 z + 1 has no real root: the residual bottoms out at 15/16
    sys_ = NonlinearSPSystem(1, 1, ["-x1"], ["z1^2 + 0.5*z1 + x1"], 0.1,
                             {"x1": (-3, 3), "z1": (-3, 3)})

    g_field = compile_field(sys_.g, sys_.names)

    def g(z):  # z1 at x1 = 1, a state or a batch
        return g_field(np.insert(z, 0, 1.0, axis=-1))

    def dg_dz(z):
        return sys_.jacobian_kernel(np.insert(z, 0, 1.0, axis=-1))[..., 1:, 1:]

    assert np.isnan(damped_newton(g, dg_dz, [[2.0]], 1e-12, 100)).all()
    with pytest.raises(NewtonFailure, match="no descent"):
        scalar_damped_newton(g, dg_dz, [2.0], 1e-12, 100)


def test_reduced_matrix_agrees_with_manifold_chain_rule():
    # A - B D^{-1} C equals df/dx + df/dz * dh/dx at points on the manifold;
    # eps * z' = x2 - z1 puts the spring's at z1 = h(x) = x2
    sys_ = nonlinear_spring_system()
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-2, 2, 2)
        A, B, C, D = jacobians(sys_, np.array([x[0], x[1], x[1]]))
        chain = A + B @ np.array([[0.0, 1.0]])
        assert np.allclose(reduced_model(A, B, C, D)[2], chain, atol=1e-8)


def test_jacobian_hull_rejects_varying_fast_block():
    sys_ = NonlinearSPSystem(2, 1, ["x2", "-x1"], ["x2 - z1 - z1^3"], 0.1, BOX3)
    with pytest.raises(NotScalarParameterized, match="block D"):
        jacobian_hull(sys_)


def test_jacobian_hull_spring():
    poly, B, C, D = jacobian_hull(nonlinear_spring_system())
    assert np.allclose(poly[0], [[0, 1], [SLOPE_LO, 0]], rtol=0, atol=1e-12)
    assert np.allclose(poly[1], [[0, 1], [2, 0]], rtol=0, atol=1e-12)
    assert np.allclose(B, [[0], [-5]])


@pytest.mark.parametrize("eps", [0.01, 0.05])
def test_spring_system_is_built_from_its_config(eps):
    sys_, built = nonlinear_spring_system(eps), build_system(spring_config(eps))
    assert (sys_.f, sys_.g, sys_.eps, sys_.omega) == (built.f, built.g, built.eps, built.omega)


def test_spring_certificate_is_built_from_its_config():
    cert, built = nonlinear_spring_certificate(), build_certificate(spring_config())
    for name in ("P_r", "P_f"):
        assert getattr(cert, name).tobytes() == getattr(built, name).tobytes()
    rates = ("lambda_r", "lambda_f", "sigma_r", "sigma_f")
    assert [np.float64(getattr(cert, k)).tobytes() for k in rates] == \
        [np.float64(getattr(built, k)).tobytes() for k in rates]
    assert cert.p == built.p == 1


def test_spring_is_written_once_in_src():
    src = pathlib.Path(systems.__file__).parents[1]
    assert sum(p.read_text().count("7*tanh(x1) - 5*x1 - 5*z1") for p in src.rglob("*.py")) == 1


def test_origin_warning_for_shifted_system():
    with pytest.warns(UserWarning, match="origin"):
        NonlinearSPSystem(1, 0, ["1 - x1"], [], 1.0, {"x1": (-3, 3)})


def test_undeclared_variable_rejected():
    with pytest.raises(ValueError, match="undeclared"):
        NonlinearSPSystem(1, 0, ["-y1"], [], 1.0, {"x1": (-3, 3)})


@pytest.mark.parametrize("eps", [0.0, -0.01])
def test_nonpositive_eps_rejected(eps):
    with pytest.raises(NonpositiveEps):
        nonlinear_spring_system(eps=eps)
    with pytest.raises(NonpositiveEps):
        LinearSPSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[-1.0]], eps=eps)


def test_linear_system_shapes_validated():
    with pytest.raises(Exception):
        LinearSPSystem(A=np.eye(2), B=np.eye(3), C=np.eye(2), D=np.eye(2))
