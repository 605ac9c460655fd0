"""Deterministic pseudo-random sampling.

A splitmix64 generator is spelled out here (rather than deferring to a
library RNG) so that seeded runs produce identical samples on any platform
or implementation of this tool.
"""

from __future__ import annotations

import numpy as np

from .cone import ConeLocation, cone_locate
from .errors import SamplingExhausted

_MASK = (1 << 64) - 1
MAX_SAMPLING_ATTEMPTS = 100_000


class SplitMix64:
    """splitmix64: 64-bit state advanced by a fixed odd constant, output
    mixed by two xor-shift-multiply rounds."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo=0.0, hi=1.0):
        # top 53 bits -> double in [0, 1)
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def point_in_box(self, box):
        return np.array([self.uniform(lo, hi) for lo, hi in box])


def sample_cone_pairs(rng, box, cone_spec, n_pairs):
    """Draw pairs of points in the box whose difference lies in the cone (interior
    or boundary) by rejection, in at most MAX_SAMPLING_ATTEMPTS draws."""
    pairs = []
    attempts = 0
    while len(pairs) < n_pairs:
        if attempts >= MAX_SAMPLING_ATTEMPTS:
            raise SamplingExhausted(
                f"{attempts} rejections for {len(pairs)}/{n_pairs} pairs; "
                "the cone is too thin in the sampling box")
        attempts += 1
        a = rng.point_in_box(box)
        b = rng.point_in_box(box)
        d = a - b
        if not np.any(d):
            continue
        if cone_locate(cone_spec, d) is not ConeLocation.OUTSIDE:
            pairs.append((a, b))
    return pairs
