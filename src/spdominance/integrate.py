"""Integration of stiff two-time-scale ODEs.

One integrator, dopri_run, the Dormand-Prince 5(4) embedded pair with its
step controlled by the local error estimate (tolerance DP_TOL), steps a
batch of states in lockstep through one vectorized right-hand side.
integrate runs a batch of trajectories of a system through it, and
integrate_variational a trajectory jointly with its variation. Both start
from default_step(sys) = min(1e-3, eps/20), which resolves the fast scale.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decouple import full_system_matrix
from .errors import ConfigError, DimensionMismatch, NewtonFailure, NonFinite
from .expressions import BinOp, Const, Var, compile_field, guarded
from .systems import (LinearSPSystem, NonlinearSPSystem, damped_newton, jacobian_kernel,
                      state_names)

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
                          f"Dormand-Prince pair: the first step eps/20 = {h:.3g} "
                          f"is at or below its step floor {DP_STEP_FLOOR:.3g}")
    return h


def make_rhs(sys):
    """Vectorized right-hand side: maps states of shape (..., dim) to
    derivatives of the same shape."""
    if isinstance(sys, LinearSPSystem):
        M = full_system_matrix(*sys.fixed_blocks(), sys.eps)

        def rhs(s):
            return s @ M.T

        return rhs

    if not isinstance(sys, NonlinearSPSystem):
        raise TypeError(f"cannot integrate {type(sys).__name__}")
    return compile_field(_derivative_asts(sys), sys.names)


def _derivative_asts(sys):
    """The state derivative's components: f, then each g times 1/eps. The
    product stays last (1/eps is not folded into g), so each fast component
    rounds as g's value scaled by 1/eps."""
    inv_eps = Const(1.0 / sys.eps)
    return sys.f + [BinOp("*", e, inv_eps) for e in sys.g]


def _check_finite(y, t):
    # false for NaN too, so one reduction covers both checks
    if not np.abs(y).max() <= STATE_NORM_LIMIT:
        raise NonFinite(f"state escaped at t={t:.6g}")


# Dormand & Prince (1980) 5(4) tableau for an autonomous right-hand side:
# the stage weights, whose last row gives the 5th-order solution (so the
# 7th stage is the next step's 1st), and the 5th- minus 4th-order weights
# of the error estimate
_DP_A = [np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_DP_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40))


# a state or error estimate that overflows is reported as NonFinite, not as a warning
@np.errstate(invalid="ignore", over="ignore")
def dopri_run(rhs, y0, t_span, h0, sample_times=None):
    """Dormand-Prince 5(4) stepping with error control; a batch of states
    (..., dim) steps in lockstep under one shared step size.

    The error of a step is the max over every row and component of
    |err| / (DP_TOL + DP_TOL * max(|y|, |y_new|)); a step is accepted when
    it is at most 1, and the next step is scaled by
    clip(0.9 * err^(-1/5), 0.2, 5). The first step is h0.

    Returns (times, states, stats). times starts at t0; then it holds every
    accepted step up to t1, or, when sample_times is given, exactly those
    times (strictly increasing within (t0, t1]): steps are cut to land on
    each. stats counts accepted and rejected steps and rhs evaluations.
    Raises NonFinite when an accepted state leaves the finite range, the
    error estimate is NaN or the step underflows below
    DP_STEP_FLOOR * max(1, |t|).
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
    y = np.array(y0, dtype=float)
    times = [t0]
    samples = [y.copy()]
    # stage derivatives; K_flat views them as rows for the weighted sums
    K = np.empty((7,) + y.shape)
    K_flat = K.reshape(7, -1)
    K[0] = rhs(y)
    abs_y = np.abs(y).ravel()  # |y| of the accepted state, carried into the next scale
    stats = {"steps": 0, "rejected": 0, "rhs_evals": 1}
    t, h = t0, float(h0)
    for stop in stops:
        while t < stop:
            # the step of a smooth right-hand side shrinks this far where the
            # solution leaves every bounded set, e.g. x' = x^3 at t = 1/(2 x0^2)
            if h < DP_STEP_FLOOR * max(1.0, abs(t)):
                raise NonFinite(f"state escaped at t={t:.6g}: step size underflow "
                                f"(h={h:.3g})")
            # stretch by up to 1% rather than leave a sliver before the stop
            landing = t + 1.01 * h >= stop
            step = stop - t if landing else h
            for i, a in enumerate(_DP_A, start=1):
                y_stage = y + step * (a @ K_flat[:i]).reshape(y.shape)
                K[i] = rhs(y_stage)
            stats["rhs_evals"] += 6
            y_new = y_stage  # the last stage is taken at the 5th-order solution
            err_vec = step * (_DP_E @ K_flat)
            abs_new = np.abs(y_new).ravel()
            scale = DP_TOL + DP_TOL * np.maximum(abs_y, abs_new)
            err = float(np.max(np.abs(err_vec) / scale))
            if math.isnan(err):
                raise NonFinite(f"state escaped at t={t:.6g}: non-finite error estimate")
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if err > 1.0:
                stats["rejected"] += 1
                h = step * fac
                continue
            stats["steps"] += 1
            t = stop if landing else t + step
            if not abs_new.max() <= STATE_NORM_LIMIT:  # as _check_finite, from abs_new
                raise NonFinite(f"state escaped at t={t:.6g}")
            y, abs_y = y_new, abs_new
            K[0] = K[6]
            # a step cut short to land on a stop does not shrink the next one
            h = max(step * fac, h) if landing else step * fac
            if sample_times is None or landing:
                times.append(t)
                samples.append(y)
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
    return dopri_run(make_rhs(sys), x0s, t_span, default_step(sys), sample_times)


def make_variational_rhs(sys):
    """Joint right-hand side on (base, delta) pairs: the delta half is driven
    by the Jacobian blocks evaluated at the current base state."""
    if isinstance(sys, LinearSPSystem):
        base_rhs = make_rhs(sys)
        dim = sys.dim

        def rhs(s):
            return np.concatenate([base_rhs(s[..., :dim]), base_rhs(s[..., dim:])],
                                  axis=-1)
        return rhs

    if not isinstance(sys, NonlinearSPSystem):
        raise TypeError(f"cannot integrate {type(sys).__name__}")
    if sys._var_kernel is None:  # compiled once per system, as jacobian_kernel is
        jac = sys.jacobian_asts()
        deltas = ["d" + name for name in sys.names]
        dx, dz = deltas[:sys.n_r], deltas[sys.n_r:]
        inv_eps = Const(1.0 / sys.eps)

        def dot(row, names):
            # sum of entry * delta over the nonzero entries, starting from 0.0:
            # a partial sum that starts at +0.0 is never -0.0, so leaving out the
            # zero entries (each term +-0.0 for a finite delta) changes no result
            terms = [BinOp("*", e, Var(d)) for e, d in zip(row, names) if e != Const(0.0)]
            return functools.reduce(lambda a, b: BinOp("+", a, b), terms, Const(0.0))

        d_slow = [BinOp("+", dot(a, dx), dot(b, dz)) for a, b in zip(jac["A"], jac["B"])]
        d_fast = [BinOp("*", BinOp("+", dot(c, dx), dot(d, dz)), inv_eps)
                  for c, d in zip(jac["C"], jac["D"])]
        sys._var_kernel = compile_field(_derivative_asts(sys) + d_slow + d_fast, sys.names + deltas)
    return sys._var_kernel


def integrate_variational(sys, x0, delta0, t_span):
    """Jointly integrate a trajectory and the variation along it through
    dopri_run; both are sampled at every accepted step."""
    x0 = np.asarray(x0, dtype=float)
    delta0 = np.asarray(delta0, dtype=float)
    if x0.shape != (sys.dim,) or delta0.shape != (sys.dim,):
        raise DimensionMismatch("x0 and delta0 must have the system dimension")
    y0 = np.concatenate([x0, delta0])
    times, states, _ = dopri_run(make_variational_rhs(sys), y0, t_span, default_step(sys))
    base = Trajectory(times=times, states=states[:, :sys.dim])
    return VariationalTrajectory(base=base, delta_states=states[:, sys.dim:])


def find_equilibria(sys):
    """Damped Newton on (f, g) = 0 from a grid of seeds on omega; the eps
    scaling does not move zeros. Returns the distinct equilibria. A zero
    divisor in the residual or the Jacobian raises EvalError."""
    axes = [np.linspace(*sys.omega[name], EQUILIBRIUM_GRID) for name in sys.names]
    field = guarded(compile_field(sys.f + sys.g, sys.names))
    jac = jacobian_kernel(sys)
    found = []
    for seed in itertools.product(*axes):
        try:
            point = damped_newton(field, jac, seed, EQUILIBRIUM_TOL, NEWTON_MAX_ITER)
        except NewtonFailure:
            continue
        if any(np.linalg.norm(point - q) <= EQUILIBRIUM_MERGE_RADIUS for q in found):
            continue
        found.append(point)
    found.sort(key=lambda p: tuple(p))
    return found


def detect_convergence(traj, equilibria, tol=CONVERGENCE_TOL):
    """Match the trajectory's final state to an equilibrium: the final state
    must lie within tol of it and the samples of the final quarter of the
    time span must vary by less than tol. The quarter is taken by time, so
    an adaptive grid, dense where the steps were small, gets the same check
    as a uniform one. Returns the matched equilibrium or None."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    final = traj.final_state
    t0, t1 = traj.times[0], traj.times[-1]
    tail = traj.states[traj.times >= t0 + 0.75 * (t1 - t0)]
    if np.abs(tail - final).max() > tol:
        return None
    for q in equilibria:
        if np.linalg.norm(final - np.asarray(q)) <= tol:
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
