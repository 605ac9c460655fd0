"""Quadratic matrix cones of rank k and membership classification.

The cone of a symmetric matrix P with k negative and n-k positive
eigenvalues is {v : v^T P v <= 0}. Classification uses a boundary band
relative to ||v||^2 so it is invariant under scaling of v.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCone, DimensionMismatch, SingularP
from .linalg import SymMatrix, _as_sym, inertia

CONE_BOUNDARY_BAND = 1e-9


class ConeLocation(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class MatrixConeSpec:
    P: SymMatrix
    rank_k: int

    @property
    def n(self):
        return self.P.n


def make_cone(P):
    """Build a cone spec from a nonsingular symmetric matrix.

    rank_k = 0 (positive-definite P) is admitted; it expresses plain
    asymptotic stability with the same machinery.
    """
    P = _as_sym(P)
    ine = inertia(P)
    if ine.zero > 0:
        raise SingularP(f"P has {ine.zero} eigenvalue(s) at numerical zero; cone degenerate")
    if ine.neg == P.n:
        raise DegenerateCone("P is negative definite; the cone is all of R^n")
    return MatrixConeSpec(P=P, rank_k=ine.neg)


def quad_form(P, v):
    """v^T P v as a plain bilinear sum."""
    P = _as_sym(P)
    v = np.asarray(v, dtype=float)
    if v.shape != (P.n,):
        raise DimensionMismatch(f"vector of length {v.shape} vs matrix of size {P.n}")
    return float(v @ P.a @ v)


def cone_locate(cone, v):
    """Classify v against the cone with boundary band CONE_BOUNDARY_BAND * ||v||^2.

    The zero vector is classified BOUNDARY: it belongs to the cone but the
    interior test is only meaningful on nonzero vectors.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.n,):
        raise DimensionMismatch(f"vector of length {v.shape} vs cone in dimension {cone.n}")
    q = quad_form(cone.P, v)
    band = CONE_BOUNDARY_BAND * float(v @ v)
    if q < -band:
        return ConeLocation.INTERIOR
    if q <= band:
        return ConeLocation.BOUNDARY
    return ConeLocation.OUTSIDE
