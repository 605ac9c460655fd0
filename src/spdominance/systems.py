"""System definitions: nonlinear two-time-scale systems over the expression
DSL, symbolic Jacobians, scalar-parameter Jacobian hulls enclosed over omega,
damped Newton, and the built-in nonlinear-spring demo system."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .certify import MatrixPolytope
from .errors import (ConfigError, DimensionMismatch, NewtonFailure,
                     NotScalarParameterized, check_eps)
from .expressions import compile_field, diff_expr, free_vars, guarded, interval, parse_expr


def state_names(n_r, n_f):
    return [f"x{i + 1}" for i in range(n_r)] + [f"z{j + 1}" for j in range(n_f)]


class _StateSpace:
    """What both system kinds share: the states x1..x{n_r}, z1..z{n_f} and
    the box omega, which maps each state to a finite (lo, hi) interval."""

    @property
    def names(self):
        return state_names(self.n_r, self.n_f)

    @property
    def dim(self):
        return self.n_r + self.n_f

    def _check_omega(self):
        """Set omega to {name: (lo, hi)}, [-1, 1] in every state when omega is
        empty or None. Raises ConfigError unless omega maps exactly the
        state names, each to a finite pair lo < hi."""
        if not self.omega:
            self.omega = {name: (-1.0, 1.0) for name in self.names}
        if not isinstance(self.omega, dict) or set(self.omega) != set(self.names):
            raise ConfigError(f"omega must name exactly the states {self.names}, "
                              f"got {list(self.omega)}")
        omega = {}
        for name in self.names:
            try:
                lo, hi = omega[name] = tuple(float(v) for v in self.omega[name])
            except (TypeError, ValueError):
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

    f and g entries are DSL expressions (strings or ASTs) over the variables
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
        self.f = [parse_expr(e) if isinstance(e, str) else e for e in self.f]
        self.g = [parse_expr(e) if isinstance(e, str) else e for e in self.g]
        if len(self.f) != self.n_r or len(self.g) != self.n_f:
            raise DimensionMismatch(
                f"need {self.n_r} f entries and {self.n_f} g entries")
        unknown = set().union(*map(free_vars, self.f + self.g)) - set(self.names)
        if unknown:
            raise ValueError(f"undeclared variable(s): {sorted(unknown)}")
        self._check_omega()
        rhs0 = guarded(compile_field(self.f + self.g, self.names))(np.zeros(self.dim))
        if np.abs(rhs0).max() > 1e-12:
            warnings.warn("system does not vanish at the origin; "
                          "dominance theory assumes a shifted equilibrium there")
        self._jac_asts = self._jac_kernel = self._var_kernel = None

    # -- symbolic machinery -------------------------------------------------

    def jacobian_asts(self):
        """Symbolic partials: dict of blocks 'A','B','C','D' -> 2-D lists."""
        if self._jac_asts is None:
            xs = self.names[:self.n_r]
            zs = self.names[self.n_r:]
            self._jac_asts = {
                "A": [[diff_expr(e, v) for v in xs] for e in self.f],
                "B": [[diff_expr(e, v) for v in zs] for e in self.f],
                "C": [[diff_expr(e, v) for v in xs] for e in self.g],
                "D": [[diff_expr(e, v) for v in zs] for e in self.g],
            }
        return self._jac_asts


@dataclass
class LinearSPSystem(_StateSpace):
    """dx/dt = A x + B z, eps * dz/dt = C x + D z. A and D may be matrix
    polytopes (vertex lists); B and C are fixed."""

    A: object
    B: np.ndarray
    C: np.ndarray
    D: object
    eps: float = 1.0
    omega: dict = None

    def __post_init__(self):
        check_eps(self.eps)
        if not isinstance(self.A, MatrixPolytope):
            self.A = MatrixPolytope([self.A])
        if not isinstance(self.D, MatrixPolytope):
            self.D = MatrixPolytope([self.D])
        self.B, self.C = (np.atleast_2d(np.asarray(m, dtype=float))
                          for m in (self.B, self.C))
        n_r, n_f = self.A.n, self.D.n
        if self.B.shape != (n_r, n_f) or self.C.shape != (n_f, n_r):
            raise DimensionMismatch(
                f"B{self.B.shape} / C{self.C.shape} inconsistent with n_r={n_r}, n_f={n_f}")
        self._check_omega()

    @property
    def n_r(self):
        return self.A.n

    @property
    def n_f(self):
        return self.D.n

    def fixed_blocks(self):
        if len(self.A.vertices) > 1 or len(self.D.vertices) > 1:
            raise ConfigError("system has polytopic blocks; pick a vertex explicitly")
        return self.A.vertices[0], self.B, self.C, self.D.vertices[0]


def jacobian_kernel(sys):
    """The full Jacobian [[A, B], [C, D]] of (f, g), compiled once per system:
    point -> (dim, dim). A zero divisor raises EvalError."""
    if sys._jac_kernel is None:
        jac = sys.jacobian_asts()
        rows = ([a + b for a, b in zip(jac["A"], jac["B"])]
                + [c + d for c, d in zip(jac["C"], jac["D"])])
        field = guarded(compile_field([e for row in rows for e in row], sys.names))
        sys._jac_kernel = lambda point: field(point).reshape(sys.dim, sys.dim)
    return sys._jac_kernel


def jacobians(sys, point):
    """Evaluate the four Jacobian blocks of (f, g) at a state point."""
    point = np.asarray(point, dtype=float)
    if point.shape != (sys.dim,):
        raise DimensionMismatch(f"point of shape {point.shape}, expected ({sys.dim},)")
    if not sys.in_omega(point):
        warnings.warn("Jacobian requested outside the declared state-space box")
    J, n_r = jacobian_kernel(sys)(point), sys.n_r
    return J[:n_r, :n_r], J[:n_r, n_r:], J[n_r:, :n_r], J[n_r:, n_r:]


def _varying_entries(sys):
    """Positions of non-constant Jacobian entries, as (block, i, j, ast)."""
    out = []
    for key, rows in sys.jacobian_asts().items():
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if free_vars(e):
                    out.append((key, i, j, e))
    return out


def a_block_hull(sys):
    """Hull of the A blocks over omega when at most one Jacobian entry, in A,
    varies with the state: a vertex at each end of its interval enclosure (one
    vertex when nothing varies). Returns (A polytope, B, C, D), B, C, D constant."""
    varying = _varying_entries(sys)
    A, B, C, D = jacobians(sys, sys.omega_center())
    if not varying:
        return MatrixPolytope([A]), B, C, D
    if len(varying) > 1:
        where = [(k, i, j) for k, i, j, _ in varying]
        raise NotScalarParameterized(f"multiple varying Jacobian entries: {where}")
    block, i, j, entry_ast = varying[0]
    if block != "A":
        raise NotScalarParameterized(
            f"varying entry sits in block {block}; the hull of A0 matrices "
            "is only affine in an entry of A")
    verts = [A.copy(), A.copy()]
    for Av, val in zip(verts, interval(entry_ast, sys.omega)):
        Av[i, j] = val
    return MatrixPolytope(verts), B, C, D


def damped_newton(fun, jac, x, tol, max_iter):
    """Solve fun(x) = 0 by Newton steps, halving each step (up to 30 times)
    until the residual norm decreases. Returns x once ||fun(x)|| <= tol;
    raises NewtonFailure on no descent, a singular jac(x), or when max_iter
    steps do not reach tol."""
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


# -- built-in demo system ---------------------------------------------------

SPRING_F = ("x2", "7*tanh(x1) - 5*x1 - 5*z1")
SPRING_G = ("x2 - z1",)
SPRING_BOX = 3.0  # omega is [-SPRING_BOX, SPRING_BOX] in every state
SPRING_T_FINAL = 9.0  # the paper's horizon
SPRING_EPS = 0.01  # the worked example's perturbation parameter
SPRING_SIGMA_R = 0.01  # the slow certificate's margin sigma_r

SPRING_INITIAL_CONDITIONS = (
    (1.0, 1.0, 1.0),
    (-1.0, 2.0, 1.0),
    (-0.5, -2.0, 1.0),
    (-2.0, -0.5, 1.0),
    (0.25, 0.5, -1.0),
)


def nonlinear_spring_system(eps=SPRING_EPS):
    """Mass with a saturating spring force and a fast first-order filter on
    the velocity feedback: x1' = x2, x2' = 7 tanh(x1) - 5 x1 - 5 z,
    eps z' = x2 - z."""
    return NonlinearSPSystem(
        n_r=2, n_f=1,
        f=list(SPRING_F),
        g=list(SPRING_G),
        eps=eps,
        omega={n: (-SPRING_BOX, SPRING_BOX) for n in state_names(2, 1)},
    )


def nonlinear_spring_certificate():
    """Verified rank-1 dominance certificate for the demo system."""
    from .certify import SPDominanceCertificate
    return SPDominanceCertificate(
        P_r=[[-5.1987, 3.6260], [3.6260, 6.1987]],
        P_f=[[1.0]],
        lambda_r=2.0, lambda_f=0.5,
        sigma_r=SPRING_SIGMA_R, sigma_f=1.0,
        p=1,
    )
