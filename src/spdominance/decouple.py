"""Two-time-scale decoupling for linear singularly perturbed systems.

Solves the time-invariant coupling equation for L from the slow eigenvectors
(all the block conditions need), gets H from one linear solve, assembles the
exact block-diagonalizing transformation T and bisects for a certified eps bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .certify import MatrixPolytope, block_conditions
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


def _inv_checked(D):
    rcond = 1.0 / np.linalg.cond(D)
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularD(f"fast block numerically singular (rcond={rcond:.2e})")
    return np.linalg.inv(D)


def reduced_model(A, B, C, D):
    """Zero-perturbation quantities: L0 = D^{-1} C, H0 = B D^{-1},
    A0 = A - B L0 (the slow/reduced system matrix)."""
    A, B, C, D = _blocks(A, B, C, D)
    D_inv = _inv_checked(D)
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


def solve_chang_lti(A, B, C, D, eps):
    """Solve the time-invariant coupling equation D L - C = eps L(A - B L) for L.

    L = -V2 V1^{-1} from the eigenvectors [V1; V2] of [[eps A, eps B], [C, D]]
    for its n_r eigenvalues of smallest modulus (the slow manifold z = -L x),
    real as a strict modulus gap keeps conjugate pairs together. NoConvergence
    without that gap or with V1 singular; one Newton step polishes a loose L.
    """
    check_eps(eps)
    A, B, C, D = _blocks(A, B, C, D)
    _inv_checked(D)
    n_r = A.shape[0]
    try:
        lam, V = np.linalg.eig(np.block([[eps * A, eps * B], [C, D]]))
    except np.linalg.LinAlgError as e:  # a non-finite entry
        raise NoConvergence(f"no slow/fast splitting at eps={eps}: {e}") from None
    order = np.argsort(np.abs(lam))
    V1, V2 = V[:n_r, order[:n_r]], V[n_r:, order[:n_r]]
    gap = abs(lam[order[n_r - 1]]) < abs(lam[order[n_r]])
    if not (gap and 1.0 / np.linalg.cond(V1) >= RCOND_MIN):
        raise NoConvergence(f"no slow/fast splitting at eps={eps}: "
                            + ("singular slow eigenvectors" if gap else "no strict modulus gap"))
    L = -np.linalg.solve(V1.T, V2.T).T.real
    F = _l_equation(A, B, C, D, L, eps)
    if np.linalg.norm(F) > coupling_residual_limit(B, C):
        L = L - np.linalg.solve(_coupling_kron(A, B, D, L, eps).T, F.ravel()).reshape(L.shape)
    _check_residuals(B, C, np.linalg.norm(_l_equation(A, B, C, D, L, eps)))
    return L


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

    Bisection assumes feasibility is monotone below the first feasible
    point; since that is not guaranteed, feasibility is re-verified at
    MONOTONE_CHECK_POINTS log-spaced eps values below the result, with a
    warning on any violation. The returned value is a certified lower bound
    on feasibility at the tested points.
    """
    check_eps(eps_max)
    if not isinstance(A_polytope, MatrixPolytope):
        A_polytope = MatrixPolytope([A_polytope])
    if not isinstance(D_polytope, MatrixPolytope):
        D_polytope = MatrixPolytope([D_polytope])
    B, C = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (B, C))

    def feasible(eps):
        for A in A_polytope.vertices:
            for D in D_polytope.vertices:
                try:
                    L = solve_chang_lti(A, B, C, D, eps)
                except NoConvergence:
                    return False
                slow, fast = block_conditions(cert, A, B, L, D, eps)
                if not (slow.feasible and fast.feasible):
                    return False
        return True

    if feasible(eps_max):
        eps_hat = eps_max
    else:
        if not feasible(EPS_FLOOR):
            raise InfeasibleAtFloor(
                f"block conditions infeasible even at eps={EPS_FLOOR}")
        lo, hi = EPS_FLOOR, eps_max
        for _ in range(BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        eps_hat = lo

    for eps in np.geomspace(EPS_FLOOR, eps_hat, MONOTONE_CHECK_POINTS):
        if not feasible(eps):
            warnings.warn(f"feasibility not monotone: violation at eps={eps:.3e} "
                          f"below eps_hat={eps_hat:.3e}", stacklevel=2)
    return float(eps_hat)
