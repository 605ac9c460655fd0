"""Two-time-scale decoupling for linear singularly perturbed systems.

L comes from the slow eigenvectors, H from one linear solve, and they assemble
the exact block-diagonalizing T. The eps threshold of the block conditions is
bisected in rounds, each one stacked solve over all vertex pairs of the next 3
tree levels and a predicted path below; the first round shares the call that
tests the search's two ends, and the search stops once its bracket is one ulp
wide. It is checked at every (A, D) vertex pair, not over the hull between.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .certify import FEASIBILITY_MARGIN, block_margins
from .errors import (DimensionMismatch, InfeasibleAtFloor, NoConvergence,
                     NonpositiveEps, SingularD, check_eps)

CHANG_RESIDUAL_TOL = 1e-10
RCOND_MIN = 1e-12
BISECT_STEPS = 60
EPS_FLOOR = 1e-12
EPS_MAX = 1.0  # the default top of epsilon_star's search
MONOTONE_CHECK_POINTS = 16
# chang_stack's why, by failure code: 0 is a clean splitting
WHY = np.array(["", "Array must not contain infs or NaNs", "no strict modulus gap",
                "singular slow eigenvectors"])


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
    """H equation's K on column-major vec(H) per slot, np.kron's products broadcast."""
    X, Y, (n_f, n_r) = (D + eps * L @ B).mT, A - B @ L, L.shape[-2:]
    K = (X[..., :, None, :, None] * np.eye(n_r)[:, None] - np.asarray(eps)[..., None, None]
         * (np.eye(n_f)[:, None, :, None] * Y[..., None, :, None, :]))
    return K.reshape(K.shape[:-4] + (n_f * n_r,) * 2)  # K.mT: the L Jacobian on row-major vec(L)


def chang_stack(A, B, C, D, eps):
    """L solving D L - C = eps L(A - B L) in each slot of stacks A, D and eps
    (eps shaped (K, 1, 1)): -V2 V1^{-1} from the eigenvectors [V1; V2] of
    [[eps A, eps B], [C, D]] for its n_r eigenvalues of smallest modulus. A
    strict modulus gap keeps conjugate pairs together, so each pair (v, conj v)
    is replaced by (Re v, Im conj v), a real basis of the same subspace: every
    slot is solved in real arithmetic, and its L does not depend on its stack
    mates. One Newton step polishes a loose L. Returns (L, why, residual,
    closing): why names a missing slow/fast splitting, masked before eig and the
    solve so no slot raises for the stack; L is NaN there or where the residual
    misses its limit. closing is the relative gap 1 - |lam_n_r| / |lam_n_r+1|,
    0 without one, squared where both are real of one sign: such a pair meets
    and turns complex, so its gap closes like a square root."""
    n_r, n = A.shape[-1], A.shape[-1] + D.shape[-1]
    M = np.empty((len(eps), n, n))
    M[:, :n_r, :n_r], M[:, :n_r, n_r:], M[:, n_r:, :n_r], M[:, n_r:, n_r:] = eps * A, eps * B, C, D
    finite = np.isfinite(M).all(axis=(1, 2))
    lam, V = np.linalg.eig(np.where(finite[:, None, None], M, np.eye(n)))
    rows, slow = np.arange(len(eps))[:, None], np.argsort(np.abs(lam), axis=1)[:, :n_r + 1]
    lam, V = lam[rows, slow], V[rows, :, slow[:, :n_r]].mT  # n_r + 1 smallest, n_r vectors
    V = np.where(lam[:, None, :n_r].imag < 0, V.imag, V.real)  # (v, conj v) -> (Re v, Im conj v)
    mod = np.abs(lam[:, n_r - 1:])  # the n_r-th and (n_r + 1)-th smallest moduli
    gap = mod[:, 0] < mod[:, 1]
    closing = 1.0 - np.divide(mod[:, 0], mod[:, 1], out=np.ones(len(eps)), where=gap)
    pair = (lam[:, n_r - 1:].imag == 0).all(1) & (lam[:, n_r - 1].real * lam[:, n_r].real > 0)
    singular = 1.0 / np.linalg.cond(V[:, :n_r]) < RCOND_MIN
    code = np.where(~finite, 1, np.where(~gap, 2, np.where(singular, 3, 0)))  # WHY's index
    ok = code == 0
    V1 = np.where(ok[:, None, None], V[:, :n_r], np.eye(n_r))
    L = -np.linalg.solve(V1.mT, V[:, n_r:].mT).mT
    F = _l_equation(A, B, C, D, L, eps)
    r, limit = np.linalg.norm(F, axis=(1, 2)), coupling_residual_limit(B, C)
    k = np.flatnonzero(ok & (r > limit))
    if k.size:  # one Newton step on every loose slot, in one solve
        K = _coupling_kron(A[k], B, D[k], L[k], eps[k]).mT
        L[k] -= np.linalg.solve(K, F[k].reshape(len(k), -1, 1)).reshape(F[k].shape)
        F = _l_equation(A[k], B, C, D[k], L[k], eps[k]).reshape(len(k), -1)
        r[k] = np.sqrt(np.vecdot(F, F))  # np.linalg.norm of each, rounded as for one
    L[~ok | ~(r <= limit)] = np.nan
    return L, WHY[code], r, np.where(pair, closing * closing, closing)


def solve_chang_lti(A, B, C, D, eps):
    """Solve the time-invariant coupling equation D L - C = eps L(A - B L) for
    L: chang_stack on a stack of one, with NoConvergence where it fails."""
    check_eps(eps)
    A, B, C, D = _blocks(A, B, C, D)
    _check_nonsingular(D)
    L, why, r, _ = chang_stack(A[None], B, C, D[None], np.full((1, 1, 1), eps))
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

    Each round evaluates, over every vertex pair in one stacked solve, the
    next 3 levels of the bisection tree below [lo, hi], 7 midpoints, and below
    them the path bisection takes if feasibility flips at a predicted eps.
    Plain bisection then replays over the evaluated points, at its own
    midpoints with its own decisions, until it reaches one not evaluated: so a
    round decides at least 3 steps, and all the path's where the prediction
    holds. The prediction is the secant root of the worst margin if hi has
    one, else where the splitting's closing measure (chang_stack) reaches 0
    on the line through the two highest feasible points. The path stops where
    [lo, hi] gets narrower than the prediction's expected error, the square of
    its change since the last round over itself; an unchanged prediction takes
    no path. The first round's points depend only on [EPS_FLOOR, eps_max], so
    they share one solve with eps_max and the floor. BISECT_STEPS caps the
    steps: the search stops early once lo and hi are adjacent floats, where
    every further midpoint is lo or hi and would re-decide an end.

    Bisection assumes feasibility is monotone below the first feasible
    point, which fails where the slow and fast modes swap roles. So the
    floor must pass, and feasibility is re-verified at MONOTONE_CHECK_POINTS
    log-spaced eps values up to the result: each violation warns, and the
    result drops to the largest point below the lowest violation. Returns
    (eps_hat, the violations as floats): eps_hat is a lower bound on
    feasibility at the tested points, checked at every (A, D) vertex pair.
    """
    check_eps(eps_max)
    if eps_max < EPS_FLOOR:
        raise NonpositiveEps(f"eps_max {eps_max} is below the floor EPS_FLOOR = {EPS_FLOOR}")
    A, B, C, D = zip(*(_blocks(A_v, B, C, D_v) for A_v in A_polytope.vertices
                       for D_v in D_polytope.vertices))
    _check_nonsingular(np.array(D_polytope.vertices))
    A, B, C, D = np.array(A), B[0], C[0], np.array(D)
    cert.check_blocks(A.shape[-1], D.shape[-1])
    seen = {}  # eps -> (worst margin, least closing measure) over every vertex pair

    def feasible(points):
        """Feasibility at each eps over every vertex pair; a failed L is NaN,
        so its margins are NaN: infeasible."""
        m, eps = len(points), np.repeat(points, len(A))[:, None, None]
        As, Ds = np.tile(A, (m, 1, 1)), np.tile(D, (m, 1, 1))
        L, _, _, closing = chang_stack(As, B, C, Ds, eps)
        worst = np.max(block_margins(cert, As, B, L, Ds, eps), axis=0).reshape(m, -1).max(1)
        seen.update(zip(points, zip(worst, closing.reshape(m, -1).min(1))))
        return worst <= FEASIBILITY_MARGIN

    def predict(lo, hi):
        """Where feasibility flips in (lo, hi), or NaN."""
        (m_lo, g_lo), (m_hi, _) = seen[lo], seen[hi]
        if np.isfinite(m_hi):  # the secant root of the worst margin
            c = lo + (FEASIBILITY_MARGIN - m_lo) * (hi - lo) / (m_hi - m_lo)
        else:  # the closing measure's, through the two highest feasible points
            x = max((e for e, (m, _) in seen.items() if e < lo and m <= FEASIBILITY_MARGIN),
                    default=lo)
            c = lo + g_lo * (lo - x) / (seen[x][1] - g_lo) if seen[x][1] > g_lo else np.nan
        return c if lo < c < hi else np.nan

    def round_points(lo, hi, c, err, left):
        """The next 3 levels of the bisection tree below [lo, hi], then the path to
        a threshold at c while [lo, hi] is at least err wide, within left steps."""
        ends = [lo, hi]
        for _ in range(min(3, left)):
            ends = [x for a, b in zip(ends, ends[1:]) for x in (a, 0.5 * (a + b))] + [hi]
        points = ends[1:-1]
        for _ in range(left):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi) or not hi - lo >= err:  # a NaN err takes no path
                break
            points.append(mid)
            lo, hi = (mid, hi) if mid < c else (lo, mid)
        return list(dict.fromkeys(points))

    lo, hi, c = EPS_FLOOR, eps_max, np.nan
    top, floor = feasible([eps_max, EPS_FLOOR, *round_points(lo, hi, c, c, BISECT_STEPS)])[:2]
    if not floor:
        raise InfeasibleAtFloor(f"block conditions infeasible even at eps={EPS_FLOOR}")
    for step in range(0 if top else BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # one ulp wide: each later step would re-decide an end
            break
        if mid not in seen:  # the next round; the first came with the ends
            c, c_last = predict(lo, hi), c
            err = np.maximum((c - c_last) ** 2 / c, 1e-17 * c) if c != c_last else np.nan
            feasible(round_points(lo, hi, c, err, BISECT_STEPS - step))
        lo, hi = (mid, hi) if seen[mid][0] <= FEASIBILITY_MARGIN else (lo, mid)
    eps_hat = eps_max if top else lo

    points = np.geomspace(EPS_FLOOR, eps_hat, MONOTONE_CHECK_POINTS)
    ok = feasible(points)
    violations = [float(eps) for eps in points[~ok]]
    for eps in violations:
        warnings.warn(f"feasibility not monotone: violation at eps={eps:.3e} "
                      f"below eps_hat={eps_hat:.3e}", stacklevel=2)
    # points[0] is the floor, which passed above (max guards a last-bit flip)
    return float(eps_hat if ok.all() else points[max(np.argmin(ok), 1) - 1]), violations
