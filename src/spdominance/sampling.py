"""Seeded rejection sampling of point pairs whose difference lies in a cone.

A seed fixes the pairs drawn through np.random.default_rng(seed), numpy's
PCG64 stream, on every platform for a given numpy version: numpy's stream
policy (NEP 19) lets Generator methods change their output between releases.
"""

from __future__ import annotations

import numpy as np

from .cone import CONE_BOUNDARY_BAND, cone_ratio
from .errors import SamplingExhausted

MAX_SAMPLING_ATTEMPTS = 100_000


def sample_cone_pairs(rng, box, P, n_pairs):
    """Draw pairs of points in the box whose nonzero difference lies in the cone
    of P (interior or boundary) by rejection, in at most MAX_SAMPLING_ATTEMPTS draws
    of rng, a numpy Generator. Candidates come in blocks, the same stream as one
    draw at a time, one cone_ratio call each; the first n_pairs accepted stay."""
    lo, hi = np.array(box, dtype=float).T
    pairs, attempts = [], 0
    while len(pairs) < n_pairs:
        if attempts >= MAX_SAMPLING_ATTEMPTS:
            raise SamplingExhausted(
                f"{attempts} rejections for {len(pairs)}/{n_pairs} pairs; "
                "the cone is too thin in the sampling box")
        m = min(1024, MAX_SAMPLING_ATTEMPTS - attempts)
        attempts += m  # read only after every block fell short
        ab = rng.uniform(lo, hi, size=(m, 2, len(lo)))
        d = ab[:, 0] - ab[:, 1]
        taken = np.flatnonzero(d.any(axis=1) & (cone_ratio(P, d) <= CONE_BOUNDARY_BAND))
        taken = taken[:n_pairs - len(pairs)]
        pairs += zip(ab[taken, 0], ab[taken, 1])
    return pairs
