"""Dense symmetric linear algebra for small matrices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ASYMMETRY_WARN_THRESHOLD = 1e-8
INERTIA_ZERO_TOL = 1e-9


class SymMatrix:
    """Real symmetric matrix. Input is symmetrized as (M + M^T)/2 on
    construction; asymmetry beyond a relative threshold triggers a warning
    (products like P*A + A^T*P are symmetric only up to roundoff)."""

    __slots__ = ("a",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=float)
        if m.ndim == 0:
            m = m.reshape(1, 1)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("matrix must be at least 1x1")
        scale = max(1.0, float(np.abs(m).max()))
        asym = float(np.abs(m - m.T).max()) / scale
        if asym > ASYMMETRY_WARN_THRESHOLD:
            warnings.warn(f"symmetrizing matrix with relative asymmetry {asym:.3e}",
                          stacklevel=2)
        self.a = 0.5 * (m + m.T)
        self.a.flags.writeable = False

    @property
    def n(self):
        return self.a.shape[0]

    def __repr__(self):
        return f"SymMatrix({self.a.tolist()})"

    def __array__(self, dtype=None, copy=None):
        return np.array(self.a, dtype=dtype)


@dataclass(frozen=True)
class Inertia:
    neg: int
    zero: int
    pos: int

    def as_tuple(self):
        return (self.neg, self.zero, self.pos)


def _as_sym(s):
    return s if isinstance(s, SymMatrix) else SymMatrix(s)


def eigvalsh_stack(a):
    """Eigenvalues of each symmetric matrix in a stack, ascending. A matrix
    with a non-finite entry has all-NaN eigenvalues: LAPACK may return finite
    values for it, which would let a NaN matrix pass as semidefinite."""
    finite = np.isfinite(a).all(axis=(-2, -1))[..., None]
    return np.where(finite, np.linalg.eigvalsh(np.where(finite[..., None], a, 0.0)), np.nan)


def sym_eigvals(S):
    """Eigenvalues of a symmetric matrix, ascending (NaN where eigvalsh_stack says)."""
    return eigvalsh_stack(_as_sym(S).a)


def inertia(S):
    """Counts of negative / zero / positive eigenvalues.

    Zero means within INERTIA_ZERO_TOL * max(1, spectral radius); the
    matrices here span magnitudes from 1e-2 to 1e1, so it tracks scale.
    """
    vals = sym_eigvals(S)
    zero_tol = INERTIA_ZERO_TOL * max(1.0, float(np.abs(vals).max()))
    neg = int(np.sum(vals < -zero_tol))
    pos = int(np.sum(vals > zero_tol))
    return Inertia(neg=neg, zero=len(vals) - neg - pos, pos=pos)


def nsd_margin(S):
    """Largest eigenvalue of S. S is negative semidefinite iff the result
    is <= 0; a negative value is the strict feasibility margin."""
    return float(sym_eigvals(S)[-1])
