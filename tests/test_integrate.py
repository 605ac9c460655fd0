import importlib
import itertools

import numpy as np
import pytest

from spdominance.analyze import certificate_cone
from spdominance.errors import ConfigError, DimensionMismatch, NonFinite
from spdominance.expressions import compile_field
from spdominance.integrate import (Trajectory, _check_finite, default_step,
                                   detect_convergence, dopri_run, find_equilibria,
                                   integrate, integrate_variational, make_rhs,
                                   make_variational_rhs, write_trajectory_csv)
from spdominance.sampling import sample_cone_pairs
from spdominance.systems import (LinearSPSystem, NonlinearSPSystem,
                                 SPRING_INITIAL_CONDITIONS,
                                 nonlinear_spring_certificate,
                                 nonlinear_spring_system)

BOX = {"x1": (-3.0, 3.0), "x2": (-3.0, 3.0), "z1": (-3.0, 3.0)}


def decay_system():
    return NonlinearSPSystem(1, 0, ["-x1"], [], 1.0, {"x1": (-3, 3)})


def oscillator():
    return NonlinearSPSystem(2, 0, ["x2", "-x1"], [], 1.0,
                             {"x1": (-3, 3), "x2": (-3, 3)})


def trajectory(sys, x0, t_span):
    """One trajectory through integrate, as a batch of one."""
    times, states, _ = integrate(sys, [x0], t_span)
    return Trajectory(times, states[:, 0])


def rk4_run(rhs, y0, t_span, h):
    """Classical 4th-order Runge-Kutta at a fixed step, the reference the
    RK4 tests here and the acceptance criteria pin. Samples every step plus
    the endpoint. Returns (times, states)."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if h <= 0 or t1 <= t0:
        raise ValueError("need h > 0 and t1 > t0")
    y = np.array(y0, dtype=float)
    n_steps = int(np.ceil((t1 - t0) / h - 1e-12))

    times = [t0]
    samples = [y.copy()]
    t = t0
    for k in range(n_steps):
        step = min(h, t1 - t)
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * step * k1)
        k3 = rhs(y + 0.5 * step * k2)
        k4 = rhs(y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t1 if k == n_steps - 1 else t0 + (k + 1) * h
        _check_finite(y, t)
        times.append(t)
        samples.append(y.copy())
    return np.array(times), np.array(samples)


def bisection_root(fn, lo, hi, tol=1e-10):
    """Independent root oracle."""
    flo = fn(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


def test_scalar_exponential():
    traj = trajectory(decay_system(), [1.0], (0, 1))
    assert traj.final_state[0] == pytest.approx(np.exp(-1.0), abs=1e-10)


def test_rk4_order_four():
    errs = []
    for h in (0.1, 0.05):
        _, states = rk4_run(make_rhs(decay_system()), [1.0], (0, 1), h)
        errs.append(abs(states[-1, 0] - np.exp(-1.0)))
    assert 14.0 <= errs[0] / errs[1] <= 18.0


def test_oscillator_energy_conserved():
    traj = trajectory(oscillator(), [1.0, 0.0], (0, 10))
    energy = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    assert np.abs(energy - 1.0).max() <= 1e-8


def test_default_step_resolves_fast_scale():
    assert default_step(nonlinear_spring_system(eps=0.01)) == pytest.approx(0.0005)


@pytest.mark.parametrize("eps", [1e-11, 2e-11])
def test_default_step_rejects_eps_at_step_floor(eps):
    # eps/20 is at or below dopri_run's step floor: too stiff, not an escape
    with pytest.raises(ConfigError, match="too stiff for the explicit"):
        default_step(nonlinear_spring_system(eps=eps))


def test_integrate_checks_batch_shape():
    sys_ = nonlinear_spring_system()
    for x0s in ([[1.0, 1.0]], [1.0, 1.0, 1.0], [[[1.0, 1.0, 1.0]]]):
        with pytest.raises(DimensionMismatch):
            integrate(sys_, x0s, (0, 1))


def test_boundary_layer_collapse():
    # fast variable collapses onto the slow one within ~10 eps
    sys_ = nonlinear_spring_system(eps=0.01)
    traj = trajectory(sys_, [0.25, 0.25, -1.0], (0, 0.2))
    i = np.searchsorted(traj.times, 0.1)
    assert abs(traj.states[i, 2] - traj.states[i, 1]) <= 1e-2


def test_nonfinite_abort():
    growth = NonlinearSPSystem(1, 0, ["x1^3"], [], 1.0, {"x1": (-3, 3)})
    with pytest.raises(NonFinite):
        integrate(growth, [[2.0]], (0, 10))


ESCAPING_RHS = [
    lambda y: np.full_like(y, np.nan),
    lambda y: np.full_like(y, np.inf),
    lambda y: np.full_like(y, 1e15),  # finite, but the state passes 1e12
]


@pytest.mark.parametrize("rhs", ESCAPING_RHS)
def test_rk4_run_rejects_escaped_state(rhs):
    with pytest.raises(NonFinite):
        rk4_run(rhs, np.zeros((2, 3)), (0.0, 1.0), 0.1)


@pytest.mark.parametrize("rhs", ESCAPING_RHS)
def test_dopri_run_rejects_escaped_state(rhs):
    with pytest.raises(NonFinite):
        dopri_run(rhs, np.zeros((2, 3)), (0.0, 1.0), 0.1)


def test_dopri_run_raises_on_step_underflow():
    # stages that alternate sign whatever the state: the error estimate
    # stays ~1e8 * h / DP_TOL, so every step is rejected until h underflows
    calls = itertools.count()

    def rhs(y):
        return np.full_like(y, 1e8 * (-1.0) ** next(calls))

    with pytest.raises(NonFinite, match="step size underflow"):
        dopri_run(rhs, np.zeros(2), (0.0, 1.0), 0.1)


def test_dopri_run_lands_on_sample_times():
    sys_ = nonlinear_spring_system()
    sample_times = [k * 0.7 / 3 for k in range(1, 13)]  # not on any step grid
    times, states, stats = dopri_run(make_rhs(sys_), np.array([[1.0, 1.0, 1.0]]),
                                     (0.0, 3.0), 5e-4, sample_times=sample_times)
    assert times[0] == 0.0
    assert times[1:].tolist() == sample_times
    assert states.shape == (13, 1, 3)
    assert stats["rhs_evals"] == 1 + 6 * (stats["steps"] + stats["rejected"])

    times, _, _ = dopri_run(make_rhs(sys_), [1.0, 1.0, 1.0], (0.0, 0.7 / 3), 5e-4)
    assert times[-1] == 0.7 / 3
    assert np.all(np.diff(times) > 0)


def test_dopri_run_short_landing_keeps_step():
    # a stop just after another cuts one step to 1e-6; the step after it
    # must not restart from 5e-6 and regrow over several steps
    rhs = make_rhs(decay_system())
    free = dopri_run(rhs, [1.0], (0.0, 10.0), 1e-3)[2]["steps"]
    stops = sorted([float(k) for k in range(1, 11)] + [k + 1e-6 for k in range(1, 10)])
    cut = dopri_run(rhs, [1.0], (0.0, 10.0), 1e-3, sample_times=stops)[2]["steps"]
    assert cut <= free + len(stops)


def spring_radau(x0s, sample_times):
    """States of the spring from each row of x0s at sample_times, from one
    Radau solve of the stacked system (rtol 1e-12)."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    n = len(x0s)

    def fun(t, s):
        x1, x2, z = s.reshape(n, 3).T
        return np.column_stack([x2, 7 * np.tanh(x1) - 5 * x1 - 5 * z,
                                (x2 - z) / 0.01]).ravel()

    def jac(t, s):
        J = np.zeros((3 * n, 3 * n))
        for i, x1 in enumerate(s[0::3]):
            J[3 * i:3 * i + 3, 3 * i:3 * i + 3] = [
                [0.0, 1.0, 0.0], [7 / np.cosh(x1) ** 2 - 5, 0.0, -5.0], [0.0, 100.0, -100.0]]
        return J

    sol = solve_ivp(fun, (0.0, sample_times[-1]), np.ravel(x0s), method="Radau",
                    rtol=1e-12, atol=1e-14, t_eval=sample_times, jac=jac)
    assert sol.success
    return sol.y.T.reshape(len(sample_times), n, 3)


def test_batch_trajectories_match_radau():
    sys_ = nonlinear_spring_system(eps=0.01)
    times, states, _ = integrate(sys_, SPRING_INITIAL_CONDITIONS, (0.0, 9.0))
    assert times[-1] == 9.0
    ref = spring_radau(SPRING_INITIAL_CONDITIONS, times)
    assert np.abs(states - ref).max() <= 1e-9


def test_dopri_run_probe_pairs_match_radau():
    sys_ = nonlinear_spring_system(eps=0.01)
    cone = certificate_cone(sys_, nonlinear_spring_certificate())
    box = [sys_.omega[name] for name in sys_.names]
    pairs = sample_cone_pairs(np.random.default_rng(42), box, cone, 10)
    x0s = np.array([p for pair in pairs for p in pair])
    sample_times = [k * 9.0 / 200 for k in range(1, 201)]
    _, states, _ = dopri_run(make_rhs(sys_), x0s, (0.0, 9.0), default_step(sys_),
                             sample_times=sample_times)
    ref = spring_radau(x0s, sample_times)
    assert np.abs(states[1:] - ref).max() <= 1e-9


def test_linear_system_integration():
    sys_ = LinearSPSystem(A=[[-1.0]], B=[[0.0]], C=[[0.0]], D=[[-1.0]], eps=0.5)
    traj = trajectory(sys_, [1.0, 1.0], (0, 1))
    assert traj.final_state[0] == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert traj.final_state[1] == pytest.approx(np.exp(-2.0), abs=1e-9)


def test_variational_linear_superposition():
    sys_ = LinearSPSystem(A=[[0.0, 1.0], [-2.0, -1.0]], B=[[0.0], [1.0]],
                          C=[[1.0, 0.0]], D=[[-2.0]], eps=0.1)
    x0 = np.array([1.0, 0.0, 0.5])
    d0 = np.array([0.3, -0.2, 0.1])
    vt = integrate_variational(sys_, x0, d0, (0, 3))
    # the two trajectories land on every sample of the variational grid
    _, states, _ = integrate(sys_, [x0, x0 + d0], (0, 3), sample_times=vt.base.times[1:])
    assert np.abs(vt.delta_states - (states[:, 1] - states[:, 0])).max() <= 1e-9


def test_variational_zero_delta_stays_zero():
    vt = integrate_variational(nonlinear_spring_system(), [1.0, 1.0, 1.0],
                               np.zeros(3), (0, 1))
    assert np.abs(vt.delta_states).max() == 0.0


def test_variational_kernel_compiles_once_per_system(monkeypatch):
    # the package exports the integrate function under the module's name
    module = importlib.import_module("spdominance.integrate")
    calls = []

    def counted(*args):
        calls.append(args)
        return compile_field(*args)

    sys_ = nonlinear_spring_system()
    monkeypatch.setattr(module, "compile_field", counted)
    first = integrate_variational(sys_, [1.0, 1.0, 1.0], [0.1, 0.0, 0.0], (0, 0.1))
    second = integrate_variational(sys_, [1.0, 1.0, 1.0], [0.1, 0.0, 0.0], (0, 0.1))
    assert len(calls) == 1
    assert first.delta_states.tobytes() == second.delta_states.tobytes()


def test_variational_vs_two_trajectory_difference():
    sys_ = nonlinear_spring_system()
    x0 = np.array([1.0, 1.0, 1.0])
    d0 = np.array([0.2, -0.1, 0.3])
    scale = 1e-6
    vt = integrate_variational(sys_, x0, d0, (0, 5))
    _, states, _ = integrate(sys_, [x0, x0 + scale * d0], (0, 5),
                             sample_times=vt.base.times[1:])
    fd = (states[:, 1] - states[:, 0]) / scale
    rel = np.abs(vt.delta_states - fd).max() / np.abs(fd).max()
    assert rel <= 1e-3


def test_batch_matches_single():
    sys_ = nonlinear_spring_system()
    x0s = np.array(SPRING_INITIAL_CONDITIONS[:2])
    rhs, h = make_rhs(sys_), default_step(sys_)
    _, states = rk4_run(rhs, x0s, (0, 1), h)
    _, single = rk4_run(rhs, x0s[0], (0, 1), h)
    assert np.allclose(states[:, 0, :], single)


def test_find_equilibria_scalar_decay():
    eqs = find_equilibria(decay_system())
    assert len(eqs) == 1
    assert abs(eqs[0][0]) <= 1e-10


def test_find_equilibria_spring():
    eqs = find_equilibria(nonlinear_spring_system())
    assert len(eqs) == 3
    xstar = bisection_root(lambda x: 7 * np.tanh(x) - 5 * x, 1.0, 1.4)
    got = sorted(q[0] for q in eqs)
    assert got[0] == pytest.approx(-xstar, abs=1e-8)
    assert got[1] == pytest.approx(0.0, abs=1e-8)
    assert got[2] == pytest.approx(xstar, abs=1e-8)
    for q in eqs:
        assert np.allclose(q[1:], 0.0, atol=1e-10)


def test_find_equilibria_stable_linear():
    sys_ = NonlinearSPSystem(2, 0, ["-x1 + x2", "-x2"], [], 1.0,
                             {"x1": (-3, 3), "x2": (-3, 3)})
    eqs = find_equilibria(sys_)
    assert len(eqs) == 1
    assert np.allclose(eqs[0], 0.0, atol=1e-10)


def test_find_equilibria_skips_failed_seeds():
    # f' = 3 x^2 - 3 vanishes at the seeds x = +-1, so Newton fails there
    sys_ = NonlinearSPSystem(1, 0, ["x1^3 - 3*x1"], [], 1.0, {"x1": (-1, 1)})
    eqs = find_equilibria(sys_)
    assert len(eqs) == 1
    assert abs(eqs[0][0]) <= 1e-10


def test_detect_convergence_scalar():
    traj = trajectory(decay_system(), [1.0], (0, 20))
    match = detect_convergence(traj, [np.zeros(1)], tol=1e-3)
    assert match is not None and match[0] == 0.0


def test_detect_convergence_oscillator_none():
    traj = trajectory(oscillator(), [1.0, 0.0], (0, 10))
    assert detect_convergence(traj, [np.zeros(2)], tol=1e-3) is None


@pytest.mark.parametrize("t_final, converges", [(8.0, False), (12.0, True)])
@pytest.mark.parametrize("grid", ["uniform", "dense_start", "dense_end"])
def test_detect_convergence_final_quarter_by_time(grid, t_final, converges):
    # exp(-t) varies by e^-6 - e^-8 = 2.1e-3 over [6, 8], the final quarter
    # of [0, 8], and by 1.2e-4 over [9, 12]; only the time span may decide,
    # not where a grid happens to be dense
    split = 0.1 * t_final
    times = {
        "uniform": np.linspace(0.0, t_final, 1000),
        "dense_start": np.concatenate([np.linspace(0.0, split, 900, endpoint=False),
                                       np.linspace(split, t_final, 100)]),
        "dense_end": np.concatenate([np.linspace(0.0, t_final - split, 100,
                                                 endpoint=False),
                                     np.linspace(t_final - split, t_final, 900)]),
    }[grid]
    traj = Trajectory(times, np.exp(-times)[:, None])
    match = detect_convergence(traj, [np.zeros(1)], tol=1e-3)
    assert (match is not None) == converges


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 2)))


def test_csv_output(tmp_path):
    sys_ = nonlinear_spring_system()
    traj = trajectory(sys_, [1.0, 1.0, 1.0], (0, 0.1))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, n_r=2)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,z1"
    assert len(lines) - 1 <= 100_000
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.1)
    assert np.allclose(last[1:], traj.final_state)


def test_csv_decimation(tmp_path):
    times = np.linspace(0, 1, 250_000)
    traj = Trajectory(times, np.zeros((250_000, 1)))
    path = tmp_path / "big.csv"
    write_trajectory_csv(traj, path)
    assert len(path.read_text().splitlines()) - 1 <= 100_001


def reference_csv(traj, path, n_r):
    """The per-value writer that write_trajectory_csv replaced."""
    m, dim = traj.states.shape
    names = [f"x{i + 1}" for i in range(n_r)] + [f"z{j + 1}" for j in range(dim - n_r)]
    with open(path, "w") as fh:
        fh.write("t," + ",".join(names) + "\n")
        for i in range(m):
            row = [f"{traj.times[i]:.17g}"] + [f"{v:.17g}" for v in traj.states[i]]
            fh.write(",".join(row) + "\n")


def test_csv_matches_per_value_format(tmp_path):
    values = [-0.0, 5e-324, 1e300, 1 / 3, -2.5e-8, 123456789.0]
    states = np.array([values[k:] + values[:k] for k in range(len(values))])[:, :3]
    traj = Trajectory(np.array([0.0, 1 / 3, 0.5, 1.0, 1e300, 2e300]), states)
    write_trajectory_csv(traj, tmp_path / "new.csv", n_r=2)
    reference_csv(traj, tmp_path / "ref.csv", n_r=2)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# -- the compiled kernels against the per-component closures they replaced ----

def reference_rhs(sys):
    f_fns = [compile_field([e], sys.names) for e in sys.f]
    g_fns = [compile_field([e], sys.names) for e in sys.g]
    inv_eps = 1.0 / sys.eps

    def rhs(s):
        parts = [fn(s)[..., 0] for fn in f_fns]
        parts += [fn(s)[..., 0] * inv_eps for fn in g_fns]
        return np.stack(parts, axis=-1)

    return rhs


def reference_variational_rhs(sys):
    base_rhs = reference_rhs(sys)
    dim = sys.dim
    jac = sys.jacobian_asts()
    entry_fns = {key: [compile_field([e], sys.names) for row in jac[key] for e in row]
                 for key in "ABCD"}
    n_r, n_f = sys.n_r, sys.n_f
    inv_eps = 1.0 / sys.eps

    def rhs(s):
        base = s[..., :dim]
        delta = s[..., dim:]
        A, B, C, D = ([fn(base)[..., 0] for fn in entry_fns[key]] for key in "ABCD")
        dx = delta[..., :n_r]
        dz = delta[..., n_r:]
        out_x = [sum(A[i * n_r + j] * dx[..., j] for j in range(n_r))
                 + sum(B[i * n_f + j] * dz[..., j] for j in range(n_f))
                 for i in range(n_r)]
        out_z = [(sum(C[i * n_r + j] * dx[..., j] for j in range(n_r))
                  + sum(D[i * n_f + j] * dz[..., j] for j in range(n_f))) * inv_eps
                 for i in range(n_f)]
        ddelta = np.stack(out_x + out_z, axis=-1)
        return np.concatenate([base_rhs(base), ddelta], axis=-1)

    return rhs


def coupled_system():
    """n_r = n_f = 2: f1 has two nonzero B entries, f2 is a nonzero constant
    (an all-zero Jacobian row)."""
    with pytest.warns(UserWarning, match="vanish"):
        return NonlinearSPSystem(
            2, 2, ["x1*z1 - 2*z2 + sin(x2)", "1.5"],
            ["x1 - z1 + tanh(z2)", "exp(x2) - 1 - 3*z2 + cos(z1)*x1 - z1^2/4"],
            0.05, {n: (-2, 2) for n in ("x1", "x2", "z1", "z2")})


PINNED_SYSTEMS = {
    "spring": nonlinear_spring_system,
    "coupled": coupled_system,
    "slow_only": lambda: NonlinearSPSystem(2, 0, ["x2", "-x1 - x2^3"], [], 1.0,
                                           {"x1": (-3, 3), "x2": (-3, 3)}),
}


def pin_states(width, rows):
    """One 1-D state and a 2-D batch whose first rows mix signed zeros."""
    rng = np.random.default_rng(7)
    states = rng.uniform(-2.0, 2.0, size=(rows, width))
    even = np.arange(width) % 2 == 0
    states[0] = 0.0
    states[1] = -0.0
    states[2] = np.where(even, -0.0, 0.0)
    states[3] = np.where(even, 0.0, -0.0)
    return [states[4], states]


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(PINNED_SYSTEMS))
def test_rhs_kernel_matches_reference(name):
    sys_ = PINNED_SYSTEMS[name]()
    new, old = make_rhs(sys_), reference_rhs(sys_)
    for s in pin_states(sys_.dim, 9):
        assert_bitwise_equal(new(s), old(s))


@pytest.mark.parametrize("name", sorted(PINNED_SYSTEMS))
def test_variational_kernel_matches_reference(name):
    sys_ = PINNED_SYSTEMS[name]()
    new, old = make_variational_rhs(sys_), reference_variational_rhs(sys_)
    for s in pin_states(2 * sys_.dim, 9):
        assert_bitwise_equal(new(s), old(s))
