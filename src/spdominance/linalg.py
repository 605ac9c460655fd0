"""Dense symmetric linear algebra for small matrices."""

from __future__ import annotations

import warnings

import numpy as np

ASYMMETRY_WARN_THRESHOLD = 1e-8
INERTIA_ZERO_TOL = 1e-9


def symmetric(entries):
    """(M + M^T)/2 of a square, non-empty M (a scalar is 1x1), read-only. Asymmetry
    beyond a relative threshold triggers a warning (products like P*A + A^T*P
    are symmetric only up to roundoff)."""
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
        warnings.warn(f"symmetrizing matrix with relative asymmetry {asym:.3e}", stacklevel=2)
    s = 0.5 * (m + m.T)
    s.flags.writeable = False
    return s


def eigvalsh_stack(a):
    """Eigenvalues of each symmetric matrix in a stack, ascending. A matrix
    with a non-finite entry has all-NaN eigenvalues: LAPACK may return finite
    values for it, which would let a NaN matrix pass as semidefinite."""
    finite = np.isfinite(a).all(axis=(-2, -1))[..., None]
    return np.where(finite, np.linalg.eigvalsh(np.where(finite[..., None], a, 0.0)), np.nan)


def sym_eigvals(S):
    """Eigenvalues of a symmetric matrix, as symmetric returns one, ascending
    (NaN where eigvalsh_stack says); S is not symmetrized again."""
    return eigvalsh_stack(S)


def inertia(S):
    """(negative, zero, positive) counts of the eigenvalues of symmetric(S), any
    square S; symmetric's own output passes unchanged and unwarned.

    Zero means within INERTIA_ZERO_TOL * max(1, spectral radius); the
    matrices here span magnitudes from 1e-2 to 1e1, so it tracks scale.
    """
    vals = sym_eigvals(symmetric(S))
    zero_tol = INERTIA_ZERO_TOL * max(1.0, float(np.abs(vals).max()))
    neg = int(np.sum(vals < -zero_tol))
    pos = int(np.sum(vals > zero_tol))
    return neg, len(vals) - neg - pos, pos
