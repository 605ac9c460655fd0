"""Dominance-certificate verification over matrices and matrix polytopes.

The central object is the residual S = P*A + A^T*P + 2*lam*P + sigma*I;
the dominance condition holds iff S is negative semidefinite. The residual
is affine in A, so checking it at polytope vertices certifies it on the
whole convex hull.

Certificates are verified, not synthesized: no SDP solver is involved,
and a candidate certificate comes from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, check_eps
from .linalg import SymMatrix, _as_sym, eigvalsh_stack, inertia, nsd_margin

FEASIBILITY_MARGIN = 0.0


@dataclass(frozen=True)
class MatrixPolytope:
    """Convex hull of square matrices, given by its vertices."""

    vertices: tuple

    def __init__(self, vertices):
        vs = tuple(np.atleast_2d(np.asarray(v, dtype=float)) for v in vertices)
        if not vs:
            raise ValueError("polytope needs at least one vertex")
        n = vs[0].shape[0]
        for v in vs:
            if v.shape != (n, n):
                raise DimensionMismatch(f"vertex of shape {v.shape}, expected ({n}, {n})")
        object.__setattr__(self, "vertices", vs)

    @property
    def n(self):
        return self.vertices[0].shape[0]


@dataclass(frozen=True)
class SPDominanceCertificate:
    """Candidate certificate for the slow/fast pair of dominance conditions."""

    P_r: SymMatrix
    P_f: SymMatrix
    lambda_r: float
    lambda_f: float
    sigma_r: float
    sigma_f: float
    p: int

    def __post_init__(self):
        object.__setattr__(self, "P_r", _as_sym(self.P_r))
        object.__setattr__(self, "P_f", _as_sym(self.P_f))
        if self.sigma_r <= 0 or self.sigma_f <= 0:
            raise ValueError("sigma_r and sigma_f must be strictly positive")
        if self.lambda_r < 0 or self.lambda_f < 0:
            raise ValueError("lambda_r and lambda_f must be nonnegative")
        ir = inertia(self.P_r)
        if ir.as_tuple() != (self.p, 0, self.P_r.n - self.p):
            raise ValueError(f"inertia of P_r is {ir.as_tuple()}, expected "
                             f"({self.p}, 0, {self.P_r.n - self.p})")
        iff = inertia(self.P_f)
        if iff.as_tuple() != (0, 0, self.P_f.n):
            raise ValueError(f"P_f must be positive definite, inertia is {iff.as_tuple()}")

    @property
    def n_r(self):
        return self.P_r.n

    @property
    def n_f(self):
        return self.P_f.n


@dataclass(frozen=True)
class CertResult:
    feasible: bool
    worst_margin: float
    worst_vertex: int
    margins: tuple = field(default=())


def lmi_residual(P, A, lam, sigma):
    """S = P*A + A^T*P + 2*lam*P + sigma*I; the condition holds iff S <= 0."""
    P = _as_sym(P)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape != (P.n, P.n):
        raise DimensionMismatch(f"A has shape {A.shape}, expected ({P.n}, {P.n})")
    S = P.a @ A + A.T @ P.a + 2.0 * lam * P.a + sigma * np.eye(P.n)
    return SymMatrix(S)


def certify_polytope(P, polytope, lam, sigma):
    """Check the dominance residual at every vertex; all margins <= 0
    certifies the condition on the whole hull (the residual is affine in A)."""
    P = _as_sym(P)
    if polytope.n != P.n:
        raise DimensionMismatch(f"polytope dimension {polytope.n} vs P dimension {P.n}")
    margins = tuple(nsd_margin(lmi_residual(P, A, lam, sigma)) for A in polytope.vertices)
    worst = int(np.argmax(margins))
    return CertResult(feasible=margins[worst] <= FEASIBILITY_MARGIN,
                      worst_margin=margins[worst],
                      worst_vertex=worst,
                      margins=margins)


def certify_sp(cert, slow, fast):
    """Verify the slow condition (P_r over the reduced-model polytope) and
    the fast condition (P_f over the fast-block polytope). Both feasible
    means the two-time-scale dominance hypotheses hold."""
    if slow.n != cert.n_r:
        raise DimensionMismatch(f"slow polytope dimension {slow.n} vs n_r {cert.n_r}")
    if fast.n != cert.n_f:
        raise DimensionMismatch(f"fast polytope dimension {fast.n} vs n_f {cert.n_f}")
    slow_res = certify_polytope(cert.P_r, slow, cert.lambda_r, cert.sigma_r)
    fast_res = certify_polytope(cert.P_f, fast, cert.lambda_f, cert.sigma_f)
    return slow_res, fast_res


def block_margins(cert, A, B, L, D, eps):
    """Largest eigenvalues of the proof-level block residuals over stacks of A,
    L, D and eps: slow block A - B*L with P_r, fast block D/eps + L*B with P_f,
    both at rate lambda_r and sigma = min(sigma_r, sigma_f)/2. A residual that
    is not finite has a NaN margin, which is infeasible."""
    sigma = 0.5 * min(cert.sigma_r, cert.sigma_f)
    S = [P @ M + M.mT @ P + 2.0 * cert.lambda_r * P + sigma * np.eye(len(P))
         for P, M in ((cert.P_r.a, A - B @ L), (cert.P_f.a, D / eps + L @ B))]
    return [eigvalsh_stack(0.5 * (s + s.mT))[..., -1] for s in S]


def block_conditions(cert, A, B, L_eps, D, eps):
    """block_margins at a given eps, one (A, L_eps, D)."""
    check_eps(eps)
    A, B, D, L = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (A, B, D, L_eps))
    n_r, n_f = cert.n_r, cert.n_f
    if A.shape != (n_r, n_r) or B.shape != (n_r, n_f) or D.shape != (n_f, n_f) \
            or L.shape != (n_f, n_r):
        raise DimensionMismatch("block shapes inconsistent with certificate dimensions")
    m_slow, m_fast = (float(m) for m in block_margins(cert, A, B, L, D, eps))
    return (CertResult(m_slow <= FEASIBILITY_MARGIN, m_slow, 0, (m_slow,)),
            CertResult(m_fast <= FEASIBILITY_MARGIN, m_fast, 0, (m_fast,)))
