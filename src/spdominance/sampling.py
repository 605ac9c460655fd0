"""Seeded rejection sampling of point pairs whose difference lies in a cone.

A seed fixes the pairs drawn through np.random.default_rng(seed), numpy's
PCG64 stream, on every platform for a given numpy version: numpy's stream
policy (NEP 19) lets Generator methods change their output between releases.
"""

from __future__ import annotations

import numpy as np

from .cone import ConeLocation, cone_locate
from .errors import SamplingExhausted

MAX_SAMPLING_ATTEMPTS = 100_000


def sample_cone_pairs(rng, box, cone_spec, n_pairs):
    """Draw pairs of points in the box whose difference lies in the cone (interior
    or boundary) by rejection, in at most MAX_SAMPLING_ATTEMPTS draws of rng,
    a numpy Generator."""
    lo, hi = np.array(box, dtype=float).T
    pairs = []
    attempts = 0
    while len(pairs) < n_pairs:
        if attempts >= MAX_SAMPLING_ATTEMPTS:
            raise SamplingExhausted(
                f"{attempts} rejections for {len(pairs)}/{n_pairs} pairs; "
                "the cone is too thin in the sampling box")
        attempts += 1
        a, b = rng.uniform(lo, hi, size=(2, len(lo)))
        d = a - b
        if np.any(d) and cone_locate(cone_spec, d) is not ConeLocation.OUTSIDE:
            pairs.append((a, b))
    return pairs
