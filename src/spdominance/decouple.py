"""Two-time-scale decoupling for linear singularly perturbed systems.

L comes from the slow eigenvectors, H from one linear solve, and they assemble
the exact block-diagonalizing T. The certified eps bound is bisected in rounds,
each evaluating 7 bisection points over all vertex pairs in one stacked solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .certify import FEASIBILITY_MARGIN, MatrixPolytope, block_margins
from .errors import (DimensionMismatch, InfeasibleAtFloor, NoConvergence,
                     SingularD, check_eps)

CHANG_RESIDUAL_TOL = 1e-10
RCOND_MIN = 1e-12
BISECT_STEPS = 60
EPS_FLOOR = 1e-12
EPS_MAX = 1.0  # the default top of epsilon_star's search
MONOTONE_CHECK_POINTS = 16


@dataclass(frozen=True)
class ChangDecoupling:
    eps: float
    L: np.ndarray
    H: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray
    slow_block: np.ndarray
    fast_block: np.ndarray


def _blocks(A, B, C, D):
    A, B, C, D = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (A, B, C, D))
    n_r = A.shape[0]
    n_f = D.shape[0]
    if A.shape != (n_r, n_r) or B.shape != (n_r, n_f) \
            or C.shape != (n_f, n_r) or D.shape != (n_f, n_f):
        raise DimensionMismatch(
            f"inconsistent blocks: A{A.shape} B{B.shape} C{C.shape} D{D.shape}")
    return A, B, C, D


def _check_nonsingular(D):
    rcond = np.min(1.0 / np.linalg.cond(D))  # of the worst matrix in a stack
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularD(f"fast block numerically singular (rcond={rcond:.2e})")


def reduced_model(A, B, C, D):
    """Zero-perturbation quantities: L0 = D^{-1} C, H0 = B D^{-1},
    A0 = A - B L0 (the slow/reduced system matrix)."""
    A, B, C, D = _blocks(A, B, C, D)
    _check_nonsingular(D)
    D_inv = np.linalg.inv(D)
    L0 = D_inv @ C
    H0 = B @ D_inv
    A0 = A - B @ L0
    return L0, H0, A0


def _l_equation(A, B, C, D, L, eps):
    return D @ L - C - eps * L @ (A - B @ L)


def chang_residuals(A, B, C, D, L, H, eps):
    """Frobenius norms of the two algebraic coupling equations."""
    r_h = np.linalg.norm(H @ D - B + eps * H @ L @ B - eps * (A - B @ L) @ H)
    return np.linalg.norm(_l_equation(A, B, C, D, L, eps)), r_h


def coupling_residual_limit(B, C):
    """The bound every coupling residual must meet."""
    return CHANG_RESIDUAL_TOL * max(1.0, np.linalg.norm(C), np.linalg.norm(B))


def _check_residuals(B, C, *residuals):
    limit = coupling_residual_limit(B, C)
    if not all(r <= limit for r in residuals):
        raise NoConvergence(f"coupling residual {np.max(residuals):.2e} > {limit:.2e}")


def _coupling_kron(A, B, D, L, eps):
    """H equation's K on column-major vec(H); K.T is the L Jacobian on row-major vec(L)."""
    return (np.kron((D + eps * L @ B).T, np.eye(len(A)))
            - eps * np.kron(np.eye(len(D)), A - B @ L))


def chang_stack(A, B, C, D, eps):
    """L solving D L - C = eps L(A - B L) in each slot of stacks A, D and eps
    (eps shaped (K, 1, 1)): -V2 V1^{-1} from the eigenvectors [V1; V2] of
    [[eps A, eps B], [C, D]] for its n_r eigenvalues of smallest modulus, real as
    a strict modulus gap keeps conjugate pairs together; one Newton step polishes
    a loose L. Returns (L, why, residual): why names a missing slow/fast splitting,
    masked before eig and the solve so no slot raises for the stack; L is NaN
    there or where the residual misses its limit."""
    n_r, n = A.shape[-1], A.shape[-1] + D.shape[-1]
    M = np.empty((len(eps), n, n))
    M[:, :n_r, :n_r], M[:, :n_r, n_r:], M[:, n_r:, :n_r], M[:, n_r:, n_r:] = eps * A, eps * B, C, D
    finite = np.isfinite(M).all(axis=(1, 2))
    lam, V = np.linalg.eig(np.where(finite[:, None, None], M, np.eye(n)))
    order = np.argsort(np.abs(lam), axis=1)
    modulus = np.take_along_axis(np.abs(lam), order, axis=1)
    V = np.take_along_axis(V, order[:, None, :n_r], axis=2)
    gap = finite & (modulus[:, n_r - 1] < modulus[:, n_r])
    V = V if lam.imag[gap].any() else V.real  # real unless a slot with a gap is complex
    why = np.select([~finite, ~gap, 1.0 / np.linalg.cond(V[:, :n_r]) < RCOND_MIN],
                    ["Array must not contain infs or NaNs", "no strict modulus gap",
                     "singular slow eigenvectors"], "")
    V1 = np.where((why == "")[:, None, None], V[:, :n_r], np.eye(n_r))
    L = -np.linalg.solve(V1.mT, V[:, n_r:].mT).mT.real
    r = np.linalg.norm(_l_equation(A, B, C, D, L, eps), axis=(1, 2))
    limit = coupling_residual_limit(B, C)
    for k in np.flatnonzero((why == "") & (r > limit)):
        F = _l_equation(A[k], B, C, D[k], L[k], eps[k, 0, 0])
        L[k] -= np.linalg.solve(_coupling_kron(A[k], B, D[k], L[k], eps[k, 0, 0]).T,
                                F.ravel()).reshape(L[k].shape)
        r[k] = np.linalg.norm(_l_equation(A[k], B, C, D[k], L[k], eps[k, 0, 0]))
    L[(why != "") | ~(r <= limit)] = np.nan
    return L, why, r


def solve_chang_lti(A, B, C, D, eps):
    """Solve the time-invariant coupling equation D L - C = eps L(A - B L) for
    L: chang_stack on a stack of one, with NoConvergence where it fails."""
    check_eps(eps)
    A, B, C, D = _blocks(A, B, C, D)
    _check_nonsingular(D)
    L, why, r = chang_stack(A[None], B, C, D[None], np.full((1, 1, 1), eps))
    if why[0]:
        raise NoConvergence(f"no slow/fast splitting at eps={eps}: {why[0]}")
    _check_residuals(B, C, r[0])
    return L[0]


def build_decoupling(A, B, C, D, eps):
    """Assemble the block-diagonalizing transformation at the given eps. H solves
    H(D + eps L B) - eps(A - B L)H = B as one linear system in column-major vec(H)."""
    A, B, C, D = _blocks(A, B, C, D)
    L = solve_chang_lti(A, B, C, D, eps)
    I_r, I_f = np.eye(len(A)), np.eye(len(D))
    try:
        H = np.linalg.solve(_coupling_kron(A, B, D, L, eps),
                            B.ravel(order="F")).reshape(B.shape, order="F")
    except np.linalg.LinAlgError as e:
        raise NoConvergence(f"H equation singular at eps={eps}: {e}") from None
    _check_residuals(B, C, *chang_residuals(A, B, C, D, L, H, eps))
    T = np.block([[I_r, eps * H], [-L, I_f - eps * L @ H]])
    # unit-determinant closed-form inverse
    T_inv = np.block([[I_r - eps * H @ L, -eps * H], [L, I_f]])
    return ChangDecoupling(eps=eps, L=L, H=H, T=T, T_inv=T_inv,
                           slow_block=A - B @ L,
                           fast_block=D / eps + L @ B)


def full_system_matrix(A, B, C, D, eps):
    """System matrix of the coupled dynamics in the original coordinates."""
    A, B, C, D = _blocks(A, B, C, D)
    return np.block([[A, B], [C / eps, D / eps]])


def epsilon_star(A_polytope, B, C, D_polytope, cert, eps_max=EPS_MAX):
    """Bisect for the largest eps in [EPS_FLOOR, eps_max] at which the
    proof-level block conditions are feasible at every (A, D) vertex pair.

    Each round evaluates the next 3 levels of the bisection tree below
    [lo, hi], 7 midpoints, over every vertex pair in one stacked solve, then
    takes the 3 steps plain bisection would: BISECT_STEPS steps in
    BISECT_STEPS / 3 rounds, at the same points with the same decisions.

    Bisection assumes feasibility is monotone below the first feasible
    point; since that is not guaranteed, feasibility is re-verified at
    MONOTONE_CHECK_POINTS log-spaced eps values below the result, with a
    warning on any violation. The returned value is a certified lower bound
    on feasibility at the tested points.
    """
    check_eps(eps_max)
    A_polytope, D_polytope = (P if isinstance(P, MatrixPolytope) else MatrixPolytope([P])
                              for P in (A_polytope, D_polytope))
    A, B, C, D = zip(*(_blocks(A_v, B, C, D_v) for A_v in A_polytope.vertices
                       for D_v in D_polytope.vertices))
    _check_nonsingular(np.array(D_polytope.vertices))
    A, B, C, D = np.array(A), B[0], C[0], np.array(D)

    def feasible(eps):
        """Feasibility at each eps over every vertex pair; a failed L is NaN,
        so its margins are NaN: infeasible."""
        m, eps = len(eps), np.repeat(eps, len(A))[:, None, None]
        As, Ds = np.tile(A, (m, 1, 1)), np.tile(D, (m, 1, 1))
        slow, fast = block_margins(cert, As, B, chang_stack(As, B, C, Ds, eps)[0], Ds, eps)
        return ((slow <= FEASIBILITY_MARGIN) & (fast <= FEASIBILITY_MARGIN)).reshape(m, -1).all(1)

    top, floor = feasible(np.array([eps_max, EPS_FLOOR]))
    if not (top or floor):
        raise InfeasibleAtFloor(f"block conditions infeasible even at eps={EPS_FLOOR}")
    lo, hi = EPS_FLOOR, eps_max
    for _ in range(0 if top else BISECT_STEPS // 3):
        ends = [lo, hi]
        for _ in range(3):  # the next 3 levels of the bisection tree below [lo, hi]
            ends = [x for a, b in zip(ends, ends[1:]) for x in (a, 0.5 * (a + b))] + [hi]
        ok = dict(zip(ends[1:-1], feasible(np.array(ends[1:-1]))))
        for _ in range(3):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ok[mid] else (lo, mid)
    eps_hat = eps_max if top else lo

    points = np.geomspace(EPS_FLOOR, eps_hat, MONOTONE_CHECK_POINTS)
    for eps in points[~feasible(points)]:
        warnings.warn(f"feasibility not monotone: violation at eps={eps:.3e} "
                      f"below eps_hat={eps_hat:.3e}", stacklevel=2)
    return float(eps_hat)
