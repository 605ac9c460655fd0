"""Quadratic matrix cones of rank k and membership classification.

The cone of a symmetric matrix P with k negative and n-k positive
eigenvalues is {v : v^T P v <= 0}. v is interior, boundary or outside as
its cone_ratio v^T P v / ||v||^2 is below, within or above the band
+-CONE_BOUNDARY_BAND, so classes are invariant under scaling of v.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateCone, DimensionMismatch, SingularP
from .linalg import inertia, symmetric

CONE_BOUNDARY_BAND = 1e-9


def make_cone(P):
    """The cone of a nonsingular P, as the read-only symmetric(P); its rank is
    inertia(P)[0], the count of negative eigenvalues. Rank 0 (positive-definite
    P) is admitted; it expresses plain asymptotic stability the same way."""
    P = symmetric(P)
    neg, zero, _ = inertia(P)
    if zero > 0:
        raise SingularP(f"P has {zero} eigenvalue(s) at numerical zero; cone degenerate")
    if neg == len(P):
        raise DegenerateCone("P is negative definite; the cone is all of R^n")
    return P


def cone_ratio(P, v):
    """v^T P v / ||v||^2 over the last axis of v, 0 for a zero vector."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (len(P),):
        raise DimensionMismatch(f"vectors of shape {v.shape} vs cone in dimension {len(P)}")
    q = ((v @ P) * v).sum(axis=-1)
    nrm2 = (v * v).sum(axis=-1)
    return q / np.where(nrm2 > 0, nrm2, 1.0)  # q is 0 for a zero v
