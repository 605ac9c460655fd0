"""Integration of stiff two-time-scale ODEs.

One integrator, dopri_run, Hairer's 8th-order DOP853 pair with its step
controlled by the combined 5th- and 3rd-order local error estimates
(tolerance DP_TOL), steps a batch of states in lockstep through one
vectorized right-hand side; each stage state is one product of step-scaled
tableau weights with a buffer of the accepted state and its 13 stage
derivatives, 12 RHS calls per step, 11 if rejected. integrate (a batch of
trajectories) and integrate_variational (one, with its variation) run either
system kind's own kernels through it, checked by check_step_budget first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, EvalError, NonFinite
from .systems import damped_newton, state_names

STATE_NORM_LIMIT = 1e12
CSV_MAX_ROWS = 100_000
# relative and absolute tolerance of dopri_run's local error estimate
DP_TOL = 1e-10
# dopri_run stops when its step falls below DP_STEP_FLOOR * max(1, |t|)
DP_STEP_FLOOR = 1e-12
EQUILIBRIUM_GRID = 5
EQUILIBRIUM_TOL = 1e-10
NEWTON_MAX_ITER = 100
EQUILIBRIUM_MERGE_RADIUS = 1e-6
CONVERGENCE_TOL = 1e-3
STEP_BUDGET = 1e6  # spectral radius x span; any run stops after STEP_BUDGET / 6 steps


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n_samples, dim)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise NonFinite("trajectory contains non-finite states")

    @property
    def final_state(self):
        return self.states[-1]


@dataclass
class VariationalTrajectory:
    base: Trajectory
    delta_states: np.ndarray  # same sampling grid as base


def default_step(sys):
    """First step of an integration: min(1e-3, eps/20). Raises ConfigError
    when eps/20 is already at dopri_run's step floor: the fast scale is then
    too stiff for the explicit pair, and the run would stop at t = 0."""
    h = min(1e-3, sys.eps / 20.0)
    if h <= DP_STEP_FLOOR:
        raise ConfigError(f"eps = {sys.eps:.3g} is too stiff for the explicit "
                          f"DOP853 pair: the first step eps/20 = {h:.3g} "
                          f"is at or below its step floor {DP_STEP_FLOOR:.3g}")
    return h


@np.errstate(invalid="ignore", over="ignore")  # dopri_run's: an overflowing entry is left out
def check_step_budget(sys, x0s, t_span):
    """After default_step's check, ConfigError when the spectral radius of the
    Jacobian of (f, g/eps) at a state of x0s (..., dim) times the span exceeds
    STEP_BUDGET (steps stay near 6 / radius). A state where the Jacobian of
    (f, g) raises EvalError or is not finite passes; dopri_run's step count is
    the backstop. One where it is finite but a fast row overflows once divided
    by eps has an infinite radius, so it is refused."""
    default_step(sys)
    try:
        J = sys.jacobian_kernel(x0s)
        J = J[np.isfinite(J).all(axis=(-2, -1))]
        J = J / np.repeat([1.0, sys.eps], [sys.n_r, sys.n_f])[:, None]
        radius = np.abs(np.linalg.eigvals(J)).max(initial=0.0) if np.isfinite(J).all() else np.inf
    except (EvalError, np.linalg.LinAlgError):  # then state by state: only those it fails at pass
        for x0 in x0s if np.ndim(x0s) > 1 else ():
            check_step_budget(sys, x0, t_span)
        return
    if (work := radius * (t_span[1] - t_span[0])) > STEP_BUDGET:
        raise ConfigError(f"spectral radius times span is {work:.3g}, above the "
                          f"explicit DOP853 pair's step budget {STEP_BUDGET:.3g}")


# make_rhs and make_variational_rhs stay as names: perfbench/recorder.py wraps them to count RHS calls
def make_rhs(sys):
    """Vectorized right-hand side: states (..., dim) -> derivatives."""
    return sys.derivative_kernel


# Hairer's DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I, 2nd ed., sections II.5 and II.10; Prince & Dormand, J. Comput.
# Appl. Math. 7, 1981), its coefficients as scipy gives them in
# scipy/integrate/_ivp/dop853_coefficients.py: the stage weights A[1:12, :11],
# the 8th-order weights B, the error weights E5, and E3 as B less the weights
# BHH. Each row maps a derivative's index to its weight; zeros are left out.
_DOP853_A = (
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
)
_DOP853_B = {
    0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
    6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
    8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
    10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2}
_DOP853_E5 = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}
_DOP853_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
               11: 0.220588235294117647058823529412e-1}


def _dop853_table():
    """DOP853's weights of the 13 stage derivatives: rows 0-10 give the stage
    states, row 11 the 8th-order solution (so the 13th derivative is the next
    step's 1st), and rows 12 and 13 the error estimates E5 and E3 over DP_TOL."""
    table = np.zeros((14, 13))
    for r, row in enumerate(_DOP853_A + (_DOP853_B, _DOP853_E5, _DOP853_B)):
        table[r, list(row)] = list(row.values())
    table[13, list(_DOP853_BHH)] -= list(_DOP853_BHH.values())
    table[12:] /= DP_TOL
    return table


_DP_TABLE = _dop853_table()


# a state or error estimate that overflows is reported as NonFinite, not as a warning
@np.errstate(invalid="ignore", over="ignore")
def dopri_run(rhs, y0, t_span, h0, sample_times=None):
    """DOP853 stepping with error control: each step takes the 8th-order
    solution from 12 RHS calls, 11 if rejected; a batch of states (..., dim)
    steps in lockstep under one shared step size.

    e5 and e3 are the max over every row and component of |E5 err| and
    |E3 err|, each over DP_TOL + DP_TOL * max(|y|, |y_new|); the error of a
    step is Hairer's combined estimate e5^2 / sqrt(e5^2 + 0.01 e3^2). A step
    is accepted when it is at most 1, and the next step is scaled by
    clip(0.9 * err^(-1/8), 0.2, 5). The first step is h0.

    Returns (times, states, stats). times starts at t0; then it holds every
    accepted step up to t1, or, when sample_times is given, exactly those
    times (strictly increasing within (t0, t1]): steps are cut to land on
    each. stats names the method and its tolerance and counts accepted and
    rejected steps and rhs evaluations. Raises NonFinite when an accepted
    state leaves the finite range, the error estimate is NaN or the step
    underflows below DP_STEP_FLOOR * max(1, |t|), and ConfigError once
    STEP_BUDGET / 6 steps, accepted or rejected, have not reached t1: the
    backstop to check_step_budget, for a field that stiffens after t0.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if h0 <= 0 or t1 <= t0:
        raise ValueError("need h0 > 0 and t1 > t0")
    if sample_times is None:
        stops = [t1]
    else:
        stops = [float(t) for t in sample_times]
        if not stops or stops[0] <= t0 or stops[-1] > t1 or \
                any(b <= a for a, b in zip(stops, stops[1:])):
            raise ValueError("sample times must increase strictly within (t0, t1]")
    y0 = np.array(y0, dtype=float)
    # G holds the accepted state, then its 13 stage derivatives; stage r's state
    # is the one product coef[r, :r + 2] @ G[:r + 2], coef[r] = (1, step * row r);
    # the 13th, the solution's, waits for acceptance: E5 and E3 weight it 0; the
    # products are the rows' bound dots, np.dot's C routine without its dispatch
    G = np.empty((14,) + y0.shape)
    G_flat = G.reshape(14, -1)
    G[0], G[1] = y0, rhs(y0)
    G[13] = G[1]  # so until the first step is accepted it is finite
    coef = np.ones((14, 14))  # column 0, the state's weight, stays 1
    stages = [(coef[r, :r + 2].dot, G_flat[:r + 2], 2 + r) for r in range(11)]
    solution, err_dot = coef[11, :13].dot, coef[12:, 1:].dot
    G_sol, K_flat = G_flat[:13], G_flat[1:]
    y_new = np.empty_like(y0)  # each stage state in turn; the last is the 8th-order solution
    y_new_flat = y_new.reshape(-1)
    abs_y = np.abs(G_flat[0])  # |y| of the accepted state, carried into the next scale
    abs_new, scale = np.empty_like(abs_y), np.empty_like(abs_y)
    err_vec = np.empty((2,) + abs_y.shape)
    times, samples = [t0], [y0]
    stats = {"method": "dop853", "tol": DP_TOL, "steps": 0, "rejected": 0, "rhs_evals": 1}
    t, h = t0, float(h0)
    for stop in stops:
        while t < stop:
            # the step of a smooth right-hand side shrinks this far where the
            # solution leaves every bounded set, e.g. x' = x^3 at t = 1/(2 x0^2)
            if h < DP_STEP_FLOOR * max(1.0, abs(t)):
                raise NonFinite(f"state escaped at t={t:.6g}: step size underflow (h={h:.3g})")
            if (n := stats["steps"] + stats["rejected"]) >= STEP_BUDGET / 6:
                raise ConfigError(f"{n} steps reached only t={t:.6g}, the explicit DOP853 pair's "
                                  f"step budget {STEP_BUDGET / 6:.3g}: too stiff, or too long a span")
            # stretch by up to 1% rather than leave a sliver before the stop
            landing = t + 1.01 * h >= stop
            step = stop - t if landing else h
            np.multiply(_DP_TABLE, step, out=coef[:, 1:])
            for dot, g, k in stages:
                dot(g, out=y_new_flat)
                G[k] = rhs(y_new)
            solution(G_sol, out=y_new_flat)
            stats["rhs_evals"] += 11
            # the E5 and E3 errors / DP_TOL, over 1 + max(|y|, |y_new|)
            err_dot(K_flat, out=err_vec)
            np.abs(y_new_flat, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale += 1.0
            err_vec /= scale
            e5, e3 = np.abs(err_vec, out=err_vec).max(axis=1).tolist()
            if math.isfinite(e5 + e3):  # e5^2 / sqrt(e5^2 + 0.01 e3^2), no square to overflow
                err = e5 / math.hypot(1.0, 0.1 * e3 / e5) if e5 else 0.0
            else:  # NaN, or infinite after a stage overflowed: the step is rejected
                err = e5 + e3
            if math.isnan(err):
                raise NonFinite(f"state escaped at t={t:.6g}: non-finite error estimate")
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
            if err > 1.0:
                stats["rejected"] += 1
                h = step * fac
                continue
            stats["steps"] += 1
            t = stop if landing else t + step
            if not abs_new.max() <= STATE_NORM_LIMIT:  # false for NaN too
                raise NonFinite(f"state escaped at t={t:.6g}")
            G[13] = rhs(y_new)
            stats["rhs_evals"] += 1
            G[0], G[1] = y_new, G[13]
            abs_y, abs_new = abs_new, abs_y
            # a step cut short to land on a stop does not shrink the next one
            h = max(step * fac, h) if landing else step * fac
            if sample_times is None or landing:
                times.append(t)
                samples.append(y_new.copy())
    return np.array(times), np.array(samples), stats


def integrate(sys, x0s, t_span, sample_times=None):
    """Integrate a batch of trajectories of a nonlinear or linear SP system
    through dopri_run from default_step(sys). x0s has shape (n_traj, dim);
    states come back with shape (n_samples, n_traj, dim). Returns
    (times, states, stats) as dopri_run does."""
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != sys.dim:
        raise DimensionMismatch(f"initial states of shape {x0s.shape}, "
                                f"expected (n_traj, {sys.dim})")
    check_step_budget(sys, x0s, t_span)
    return dopri_run(make_rhs(sys), x0s, t_span, default_step(sys), sample_times)


def make_variational_rhs(sys):
    """Joint right-hand side on (base, delta) states (..., 2 dim)."""
    return sys.variational_kernel


def integrate_variational(sys, x0, delta0, t_span):
    """Jointly integrate a trajectory and the variation along it through
    dopri_run; both are sampled at every accepted step."""
    x0 = np.asarray(x0, dtype=float)
    delta0 = np.asarray(delta0, dtype=float)
    if x0.shape != (sys.dim,) or delta0.shape != (sys.dim,):
        raise DimensionMismatch("x0 and delta0 must have the system dimension")
    y0 = np.concatenate([x0, delta0])
    check_step_budget(sys, x0, t_span)  # the joint Jacobian has J twice on its diagonal
    times, states, _ = dopri_run(make_variational_rhs(sys), y0, t_span, default_step(sys))
    base = Trajectory(times=times, states=states[:, :sys.dim])
    return VariationalTrajectory(base=base, delta_states=states[:, sys.dim:])


def find_equilibria(sys):
    """Damped Newton on (f, g) = 0 from a grid of seeds on omega, all seeds
    in one batch; the eps scaling does not move zeros. Returns the distinct
    equilibria. A zero divisor in the residual or the Jacobian raises
    EvalError."""
    axes = [np.linspace(*sys.omega[name], EQUILIBRIUM_GRID) for name in sys.names]
    roots = damped_newton(sys.field, sys.jacobian_kernel, list(itertools.product(*axes)),
                          EQUILIBRIUM_TOL, NEWTON_MAX_ITER)
    found = []
    for point in roots[~np.isnan(roots).any(axis=1)]:  # NaN rows failed
        if any(np.linalg.norm(point - q) <= EQUILIBRIUM_MERGE_RADIUS for q in found):
            continue
        found.append(point)
    found.sort(key=lambda p: tuple(p))
    return found


def detect_convergence(traj, equilibria):
    """Match the trajectory's final state to an equilibrium: the final state
    must lie within CONVERGENCE_TOL of it and the samples of the final
    quarter of the time span must vary by less than CONVERGENCE_TOL. The
    quarter is taken by time, so an adaptive grid, dense where the steps were
    small, gets the same check as a uniform one. Returns the matched
    equilibrium or None."""
    final = traj.final_state
    t0, t1 = traj.times[0], traj.times[-1]
    tail = traj.states[traj.times >= t0 + 0.75 * (t1 - t0)]
    if np.abs(tail - final).max() > CONVERGENCE_TOL:
        return None
    for q in equilibria:
        if np.linalg.norm(final - np.asarray(q)) <= CONVERGENCE_TOL:
            return np.asarray(q)
    return None


def write_trajectory_csv(traj, path, n_r=None):
    """CSV with header t,x1,...,z...; decimated to at most 100k rows; values
    at full double precision."""
    m, dim = traj.states.shape
    n_r = dim if n_r is None else n_r
    stride = max(1, int(np.ceil(m / CSV_MAX_ROWS)))
    idx = np.unique(np.r_[0:m:stride, m - 1])  # every stride-th row and the last
    np.savetxt(path, np.column_stack([traj.times, traj.states])[idx], fmt="%.17g",
               delimiter=",", header=",".join(["t"] + state_names(n_r, dim - n_r)),
               comments="")
