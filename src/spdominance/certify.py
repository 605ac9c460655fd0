"""Dominance-certificate verification over matrices and matrix polytopes.

The central object is the residual S = P*A + A^T*P + 2*lam*P + sigma*I;
the dominance condition holds iff S is negative semidefinite. The residual
is affine in A, so checking it at polytope vertices certifies it on the
whole convex hull. lmi_residual is the one place S is formed: it takes a
stack of A, so a polytope's vertex margins, and the block margins of the
eps search, each come from one residual stack and one eigvalsh call.

Certificates are verified, not synthesized: no SDP solver is involved,
and a candidate certificate comes from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import eigvalsh_stack, inertia, symmetric

FEASIBILITY_MARGIN = 0.0


def vertex_stack(vertices):
    """A polytope of square matrices, the convex hull of its vertices, as a
    read-only (k, n, n) stack of them."""
    vs = [np.atleast_2d(np.asarray(v, dtype=float)) for v in vertices]
    if not vs:
        raise ValueError("polytope needs at least one vertex")
    n = vs[0].shape[0]
    for v in vs:
        if v.shape != (n, n):
            raise DimensionMismatch(f"vertex of shape {v.shape}, expected ({n}, {n})")
    stack = np.array(vs)
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True, eq=False)  # arrays have no single-bool ==
class SPDominanceCertificate:
    """Candidate certificate for the slow/fast pair of dominance conditions."""

    P_r: np.ndarray
    P_f: np.ndarray
    lambda_r: float
    lambda_f: float
    sigma_r: float
    sigma_f: float
    p: int

    def __post_init__(self):
        object.__setattr__(self, "P_r", symmetric(self.P_r))
        object.__setattr__(self, "P_f", symmetric(self.P_f))
        if not (0 < self.sigma_r < np.inf and 0 < self.sigma_f < np.inf):  # NaN fails too
            raise ValueError("sigma_r and sigma_f must be positive and finite")
        if not (0 <= self.lambda_r < np.inf and 0 <= self.lambda_f < np.inf):
            raise ValueError("lambda_r and lambda_f must be nonnegative and finite")
        ir = inertia(self.P_r)
        if ir != (self.p, 0, self.n_r - self.p):
            raise ValueError(f"inertia of P_r is {ir}, expected ({self.p}, 0, {self.n_r - self.p})")
        iff = inertia(self.P_f)
        if iff != (0, 0, self.n_f):
            raise ValueError(f"P_f must be positive definite, inertia is {iff}")

    @property
    def n_r(self):
        return len(self.P_r)

    @property
    def n_f(self):
        return len(self.P_f)

    def check_blocks(self, n_r, n_f):
        """DimensionMismatch unless the blocks are n_r and n_f states wide."""
        if (self.n_r, self.n_f) != (n_r, n_f):
            raise DimensionMismatch(
                f"certificate blocks {self.n_r}+{self.n_f} vs system {n_r}+{n_f}")


@dataclass(frozen=True)
class CertResult:
    feasible: bool
    worst_margin: float
    worst_vertex: int
    margins: tuple = field(default=())


def _cert_result(margins):
    """The verdict on a margin per vertex, in plain Python types; the first NaN is the worst."""
    margins = tuple(float(m) for m in margins)
    worst = int(np.argmax(margins))
    return CertResult(margins[worst] <= FEASIBILITY_MARGIN, margins[worst], worst, margins)


def lmi_residual(P, A, lam, sigma):
    """S = P*A + A^T*P + 2*lam*P + sigma*I, symmetrized, for each A of a stack
    (..., n, n); the condition holds at an A iff its S <= 0."""
    P = np.asarray(P, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[-2:] != P.shape:
        raise DimensionMismatch(f"A has shape {A.shape}, expected (..., {len(P)}, {len(P)})")
    S = P @ A + A.mT @ P + 2.0 * lam * P + sigma * np.eye(len(P))
    return 0.5 * (S + S.mT)


def certify_polytope(P, vertices, lam, sigma):
    """Check the dominance residual at every vertex of a (k, n, n) stack; all
    margins <= 0 certifies the condition on the whole hull (the residual is
    affine in A)."""
    S = lmi_residual(P, vertices, lam, sigma)
    return _cert_result(eigvalsh_stack(S)[:, -1])


def block_margins(cert, A, B, L, D, eps):
    """Largest eigenvalues of the proof-level block residuals over stacks of A,
    L, D and eps: slow block A - B*L with P_r, fast block D/eps + L*B with P_f,
    both at rate lambda_r and sigma = min(sigma_r, sigma_f)/2. A residual that
    is not finite has a NaN margin, which is infeasible."""
    sigma = 0.5 * min(cert.sigma_r, cert.sigma_f)
    return [eigvalsh_stack(lmi_residual(P, M, cert.lambda_r, sigma))[..., -1]
            for P, M in ((cert.P_r, A - B @ L), (cert.P_f, D / eps + L @ B))]
