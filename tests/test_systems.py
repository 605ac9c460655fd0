import itertools
import warnings

import numpy as np
import pytest

from spdominance import systems
from spdominance.cli import slow_fast_polytopes
from spdominance.decouple import reduced_model
from spdominance.errors import NonpositiveEps, NotScalarParameterized
from spdominance.expressions import compile_field, guarded, interval
from spdominance.systems import (LinearSPSystem, NonlinearSPSystem, a_block_hull,
                                 damped_newton, jacobians, nonlinear_spring_system)

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
    hull, _ = slow_fast_polytopes(nonlinear_spring_system())
    assert len(hull.vertices) == 2
    assert np.allclose(hull.vertices[0], [[0, 1], [SLOPE_LO, -5]], rtol=0, atol=1e-12)
    assert np.allclose(hull.vertices[1], [[0, 1], [2, -5]], rtol=0, atol=1e-12)


def test_scalar_hull_constant_system_single_vertex():
    sys_ = NonlinearSPSystem(2, 1, ["x2", "-2*x1 - 3*x2 + z1"], ["-x1 - z1"],
                             0.1, BOX3)
    hull, _, _, _ = a_block_hull(sys_)
    assert len(hull.vertices) == 1


def test_scalar_hull_rejects_multiple_varying_entries():
    sys_ = NonlinearSPSystem(2, 1, ["x2 * x2", "tanh(x1)"], ["x2 - z1"], 0.1, BOX3)
    with pytest.raises(NotScalarParameterized):
        a_block_hull(sys_)


def test_sampled_bounds_within_analytic_range():
    # the entry sampled over omega lies in its enclosure, inside the range (-5, 2]
    sys_ = nonlinear_spring_system()
    entry = sys_.jacobian_asts()["A"][1][0]
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
    jac = systems.jacobian_kernel(sys_)
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
        return systems.jacobian_kernel(sys_)(np.insert(z, 0, 1.0, axis=-1))[..., 1:, 1:]

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


def test_a_block_hull_rejects_varying_fast_block():
    sys_ = NonlinearSPSystem(2, 1, ["x2", "-x1"], ["x2 - z1 - z1^3"], 0.1, BOX3)
    with pytest.raises(NotScalarParameterized, match="block D"):
        a_block_hull(sys_)


def test_a_block_hull_spring():
    poly, B, C, D = a_block_hull(nonlinear_spring_system())
    assert np.allclose(poly.vertices[0], [[0, 1], [SLOPE_LO, 0]], rtol=0, atol=1e-12)
    assert np.allclose(poly.vertices[1], [[0, 1], [2, 0]], rtol=0, atol=1e-12)
    assert np.allclose(B, [[0], [-5]])


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
