"""System definitions: nonlinear two-time-scale systems over the expression
DSL and linear ones, the Jacobian hull enclosed over omega, damped Newton,
and the built-in nonlinear-spring demo, defined once as a config (spring_config)."""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import SPDominanceCertificate, vertex_stack
from .decouple import full_system_matrix, reduced_model
from .errors import ConfigError, DimensionMismatch, NotScalarParameterized, check_eps
from .expressions import (BinOp, Const, Var, compile_field, diff_expr, free_vars, guarded,
                          interval, parse_expr)


def state_names(n_r, n_f):
    return [f"x{i + 1}" for i in range(n_r)] + [f"z{j + 1}" for j in range(n_f)]


class _StateSpace:
    """What both system kinds share: the states x1..x{n_r}, z1..z{n_f}, the
    box omega, which maps each state to a finite (lo, hi) interval, and L0 =
    D^{-1} C of the eps -> 0 decoupling transform T0^{-1} = [[I, 0], [L0, I]],
    which maps (x, z) to x and the distance z + L0 x from the slow manifold.
    What a system derives from its definition is a cached_property, computed
    at first use; nothing assigns a system's fields after construction, so no
    cached value goes stale."""

    @property
    def names(self):
        return state_names(self.n_r, self.n_f)

    @property
    def dim(self):
        return self.n_r + self.n_f

    def _check_omega(self):
        """Set omega to {name: (lo, hi)}, [-1, 1] in every state when omega is
        None. Raises ConfigError unless omega is a dict that maps exactly the
        state names, each to a finite pair lo < hi of numbers (no bool or str)."""
        if self.omega is None:
            self.omega = {name: (-1.0, 1.0) for name in self.names}
        if not isinstance(self.omega, dict) or set(self.omega) != set(self.names):
            got = list(self.omega) if isinstance(self.omega, dict) else self.omega
            raise ConfigError(f"omega must name exactly the states {self.names}, got {got!r}")
        omega = {}
        for name in self.names:
            try:
                lo, hi = omega[name] = tuple(np.nan if isinstance(v, (bool, str)) else float(v)
                                             for v in self.omega[name])
            except (OverflowError, TypeError, ValueError):
                lo = hi = np.nan
            if not -np.inf < lo < hi < np.inf:
                raise ConfigError(f"omega interval for {name} must be a finite pair "
                                  f"lo < hi, got {self.omega[name]!r}")
        self.omega = omega

    def in_omega(self, point):
        point = np.asarray(point, dtype=float)
        return all(self.omega[name][0] <= v <= self.omega[name][1]
                   for name, v in zip(self.names, point))

    def omega_center(self):
        return np.array([(self.omega[n][0] + self.omega[n][1]) / 2 for n in self.names])


@dataclass
class NonlinearSPSystem(_StateSpace):
    """dx/dt = f(x, z), eps * dz/dt = g(x, z), on a box state-space omega.

    f and g are lists of DSL expression strings over the variables
    x1..x{n_r}, z1..z{n_f}. omega's invariance is the caller's responsibility.
    """

    n_r: int
    n_f: int
    f: list
    g: list
    eps: float = 1.0
    omega: dict = None

    def __post_init__(self):
        check_eps(self.eps)
        for k in ("f", "g"):  # a string would be read one character per entry
            if isinstance(v := getattr(self, k), str):
                raise ValueError(f"{k} must be a list of expressions, got the string {v!r}")
            if not isinstance(v, (list, tuple)) or not all(isinstance(e, str) for e in v):
                raise ValueError(f"{k} must be a list of expression strings, got {v!r}")
        self.f = [parse_expr(e) for e in self.f]
        self.g = [parse_expr(e) for e in self.g]
        if len(self.f) != self.n_r or len(self.g) != self.n_f:
            raise DimensionMismatch(
                f"need {self.n_r} f entries and {self.n_f} g entries")
        unknown = set().union(*map(free_vars, self.f + self.g)) - set(self.names)
        if unknown:
            raise ValueError(f"undeclared variable(s): {sorted(unknown)}")
        self._check_omega()
        if np.abs(self.field(np.zeros(self.dim))).max() > 1e-12:
            warnings.warn("system does not vanish at the origin; "
                          "dominance theory assumes a shifted equilibrium there")

    @cached_property
    def field(self):
        """(f, g) at states (..., dim); a zero divisor raises EvalError."""
        return guarded(compile_field(self.f + self.g, self.names))

    @cached_property
    def jacobian_asts(self):
        """Symbolic partials: dict of blocks 'A','B','C','D' -> 2-D lists."""
        xs, zs = self.names[:self.n_r], self.names[self.n_r:]
        return {key: [[diff_expr(e, v) for v in vs] for e in es] for key, es, vs in
                (("A", self.f, xs), ("B", self.f, zs), ("C", self.g, xs), ("D", self.g, zs))}

    def varying_entries(self, blocks):
        """(block, i, j) of each state-dependent entry of the named Jacobian blocks."""
        return [(key, i, j) for key in blocks for i, row in enumerate(self.jacobian_asts[key])
                for j, e in enumerate(row) if free_vars(e)]

    @cached_property
    def jacobian_kernel(self):
        """The full Jacobian [[A, B], [C, D]] of (f, g): points (..., dim) ->
        (..., dim, dim). A zero divisor raises EvalError."""
        jac, dim = self.jacobian_asts, self.dim
        rows = ([a + b for a, b in zip(jac["A"], jac["B"])]
                + [c + d for c, d in zip(jac["C"], jac["D"])])
        entries = guarded(compile_field([e for row in rows for e in row], self.names))
        return lambda point: entries(point).reshape(np.shape(point)[:-1] + (dim, dim))

    @cached_property
    def derivative_asts(self):
        """The state derivative's components: f, then each g times 1/eps. The
        product stays last (1/eps is not folded into g), so each fast component
        rounds as g's value scaled by 1/eps."""
        inv_eps = Const(1.0 / self.eps)
        return self.f + [BinOp("*", e, inv_eps) for e in self.g]

    @cached_property
    def derivative_kernel(self):
        """The state derivative (f, g/eps): states (..., dim) -> derivatives."""
        return compile_field(self.derivative_asts, self.names)

    @cached_property
    def variational_kernel(self):
        """make_variational_rhs's kernel, on (base, delta) states (..., 2 dim)."""
        jac = self.jacobian_asts
        deltas = ["d" + name for name in self.names]
        dx, dz = deltas[:self.n_r], deltas[self.n_r:]
        inv_eps = Const(1.0 / self.eps)

        add = functools.partial(BinOp, "+")

        def half(row, names):  # entry * delta over the nonzero entries, from 0.0
            terms = [Var(d) if e == Const(1.0) else BinOp("*", e, Var(d))
                     for e, d in zip(row, names) if e != Const(0.0)]
            return functools.reduce(add, terms, Const(0.0))

        def dot(row_x, row_z):
            # a partial sum that starts at +0.0 is never -0.0, so leaving out the
            # zero entries (each term +-0.0 for a finite delta) and an empty half
            # (+0.0) changes no result, nor does writing 1.0 * delta as delta
            halves = [h for h in (half(row_x, dx), half(row_z, dz)) if h != Const(0.0)]
            return functools.reduce(add, halves) if halves else Const(0.0)

        d_slow = [dot(a, b) for a, b in zip(jac["A"], jac["B"])]
        d_fast = [BinOp("*", dot(c, d), inv_eps) for c, d in zip(jac["C"], jac["D"])]
        return compile_field(self.derivative_asts + d_slow + d_fast, self.names + deltas)

    @cached_property
    def L0(self):
        """L0 from the Jacobian at omega's center; NotScalarParameterized where
        an entry of C or D varies over omega: no constant decoupling transform."""
        if varying := self.varying_entries("CD"):
            raise NotScalarParameterized(
                f"fast-block Jacobian entries {varying} vary over omega; "
                "no constant decoupling transform, hence no single cone")
        return reduced_model(*jacobians(self, self.omega_center()))[0]


@dataclass
class LinearSPSystem(_StateSpace):
    """dx/dt = A x + B z, eps * dz/dt = C x + D z. A and D are vertex stacks, of
    which a value of at most 2 dimensions is one vertex; B and C are fixed."""

    A: object
    B: np.ndarray
    C: np.ndarray
    D: object
    eps: float = 1.0
    omega: dict = None

    def __post_init__(self):
        check_eps(self.eps)
        self.A, self.D = (vertex_stack(m if np.ndim(m) == 3 else [m]) for m in (self.A, self.D))
        self.B, self.C = (np.atleast_2d(np.asarray(m, dtype=float))
                          for m in (self.B, self.C))
        n_r, n_f = self.n_r, self.n_f
        if self.B.shape != (n_r, n_f) or self.C.shape != (n_f, n_r):
            raise DimensionMismatch(
                f"B{self.B.shape} / C{self.C.shape} inconsistent with n_r={n_r}, n_f={n_f}")
        for name, blocks in zip("ABCD", (self.A, self.B, self.C, self.D)):
            if not np.isfinite(blocks).all():
                raise ValueError(f"{name} must be finite, got a NaN or infinite entry")
        self._check_omega()

    @property
    def n_r(self):
        return self.A.shape[-1]

    @property
    def n_f(self):
        return self.D.shape[-1]

    def fixed_blocks(self):
        if len(self.A) > 1 or len(self.D) > 1:
            raise ConfigError("system has polytopic blocks; pick a vertex explicitly")
        return self.A[0], self.B, self.C, self.D[0]

    @cached_property
    def jacobian_kernel(self):
        """The fixed blocks' [[A, B], [C, D]], broadcast: points (..., dim) -> (..., dim, dim)."""
        J = full_system_matrix(*self.fixed_blocks(), 1.0)
        return lambda point: np.broadcast_to(J, np.shape(point)[:-1] + J.shape)

    @cached_property
    def derivative_kernel(self):
        """The state derivative M s, M = [[A, B], [C/eps, D/eps]] of the fixed blocks."""
        M = full_system_matrix(*self.fixed_blocks(), self.eps)
        return lambda s: s @ M.T

    @cached_property
    def variational_kernel(self):
        """derivative_kernel on (base, delta) states (..., 2 dim): the variation obeys it too."""
        rhs = self.derivative_kernel
        return lambda s: rhs(s.reshape(s.shape[:-1] + (2, self.dim))).reshape(s.shape)

    @cached_property
    def L0(self):
        """L0 of the fixed blocks; ConfigError where A or D is a polytope."""
        return reduced_model(*self.fixed_blocks())[0]


def jacobians(sys, point):
    """The four Jacobian blocks at a state point: of (f, g), or a linear system's."""
    point = np.asarray(point, dtype=float)
    if point.shape != (sys.dim,):
        raise DimensionMismatch(f"point of shape {point.shape}, expected ({sys.dim},)")
    if not sys.in_omega(point):
        warnings.warn("Jacobian requested outside the declared state-space box")
    J, n_r = sys.jacobian_kernel(point), sys.n_r
    return J[:n_r, :n_r], J[:n_r, n_r:], J[n_r:, :n_r], J[n_r:, n_r:]


MAX_HULL_ENTRIES = 8  # varying Jacobian entries a hull encloses, so at most 2^8 corners


def jacobian_hull(sys):
    """(A stack, B, C, D stack) over omega: a LinearSPSystem's own blocks,
    or the Jacobian at omega's center with each varying entry of A at either
    end of its interval enclosure, one corner per combination (the entries in
    row-major order). A - B D^{-1} C is affine in A, so with B, C and D constant
    the corners enclose every reduced matrix over omega; NotScalarParameterized
    when one of them varies, or more than MAX_HULL_ENTRIES entries of A do."""
    if isinstance(sys, LinearSPSystem):
        return sys.A, sys.B, sys.C, sys.D
    if varying := sys.varying_entries("BCD"):
        raise NotScalarParameterized(f"varying entry sits in block {varying[0][0]}; the "
                                     "hull of A0 matrices is only affine in A")
    entries = sys.varying_entries("A")
    if len(entries) > MAX_HULL_ENTRIES:
        raise NotScalarParameterized(f"{len(entries)} varying Jacobian entries in A, "
                                     f"more than MAX_HULL_ENTRIES = {MAX_HULL_ENTRIES}")
    A, B, C, D = jacobians(sys, sys.omega_center())
    ends = [interval(sys.jacobian_asts["A"][i][j], sys.omega) for _, i, j in entries]
    corners = np.repeat(A[None], 2 ** len(entries), axis=0)
    corners[:, [i for _, i, _ in entries], [j for _, _, j in entries]] = list(
        itertools.product(*ends))
    return corners, B, C, D[None]


def damped_newton(fun, jac, x, tol, max_iter):
    """Solve fun(x) = 0 by Newton steps from each row of x, shape (n, dim),
    halving a row's step (up to 30 times) until its residual norm decreases;
    fun and jac map a batch of rows to their residuals and Jacobians. Each row
    takes the steps it would take alone. A row is done once ||fun(x)|| <= tol;
    it fails on no descent, a singular jac(x), or when max_iter steps do not
    reach tol. Returns the roots, NaN in each failed row."""
    x = np.array(x, dtype=float)
    live, res = np.arange(len(x)), fun(x)  # the rows still stepping
    for k in range(max_iter + 1):
        nrm = _row_norms(res)
        keep = ~(nrm <= tol)
        live, res, nrm = live[keep], res[keep], nrm[keep]
        if k == max_iter or not live.size:  # at max_iter the live rows missed tol
            x[live] = np.nan
            break
        step, solved = _solve_rows(jac(x[live]), res)
        x[live[~solved]] = np.nan
        live, res, nrm, step = live[solved], res[solved], nrm[solved], step[solved]
        alpha = np.ones(len(live))
        search = np.arange(len(live))  # rows whose residual has not decreased yet
        for _ in range(30):
            if not search.size:
                break
            cand = x[live[search]] - alpha[search, None] * step[search]
            res_new = fun(cand)
            down = _row_norms(res_new) < nrm[search]
            x[live[search[down]]], res[search[down]] = cand[down], res_new[down]
            search = search[~down]
            alpha[search] *= 0.5
        x[live[search]] = np.nan
        live, res = np.delete(live, search), np.delete(res, search, axis=0)
    return x


def _row_norms(r):
    """np.linalg.norm of each row, rounded as it rounds one vector; inf, not
    converged, where the sum of squares overflows."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.vecdot(r, r))


def _solve_rows(J, r):
    """np.linalg.solve of each row's system in one call, and whether each was solved:
    not where LU meets an exact zero pivot (slogdet's sign 0), which solves the identity."""
    with np.errstate(invalid="ignore"):  # slogdet warns on a NaN row, which solves to NaN
        solved = np.linalg.slogdet(J)[0] != 0
    return np.linalg.solve(np.where(solved[:, None, None], J, np.eye(J.shape[-1])),
                           r[..., None])[..., 0], solved


# -- built-in demo system ---------------------------------------------------

SPRING_T_FINAL = 9.0  # the paper's horizon
SPRING_EPS = 0.01  # the worked example's perturbation parameter

SPRING_INITIAL_CONDITIONS = (
    (1.0, 1.0, 1.0),
    (-1.0, 2.0, 1.0),
    (-0.5, -2.0, 1.0),
    (-2.0, -0.5, 1.0),
    (0.25, 0.5, -1.0),
)


def spring_config(eps=SPRING_EPS):
    """The demo: a mass with a saturating spring force and a fast filter on the
    velocity feedback, x1' = x2, x2' = 7 tanh(x1) - 5 x1 - 5 z1, eps z1' = x2 - z1,
    on [-3, 3] in every state, with its verified rank-1 dominance certificate."""
    return {
        "spec_version": 1, "kind": "nonlinear", "n_r": 2, "n_f": 1, "eps": eps,
        "f": ["x2", "7*tanh(x1) - 5*x1 - 5*z1"],
        "g": ["x2 - z1"],
        "omega": {n: [-3.0, 3.0] for n in state_names(2, 1)},
        "certificate": {
            "P_r": [[-5.1987, 3.6260], [3.6260, 6.1987]], "P_f": [[1.0]],
            "lambda_r": 2.0, "lambda_f": 0.5, "sigma_r": 0.01, "sigma_f": 1.0, "p": 1,
        },
        "initial_conditions": [list(ic) for ic in SPRING_INITIAL_CONDITIONS],
    }


def nonlinear_spring_system(eps=SPRING_EPS):
    """spring_config's system."""
    cfg = spring_config(eps)
    return NonlinearSPSystem(**{k: cfg[k] for k in ("n_r", "n_f", "f", "g", "eps", "omega")})


def nonlinear_spring_certificate():
    """spring_config's certificate."""
    return SPDominanceCertificate(**spring_config()["certificate"])
