import numpy as np
import pytest

from spdominance import sampling
from spdominance.cone import ConeLocation, cone_locate, make_cone
from spdominance.errors import SamplingExhausted
from spdominance.sampling import sample_cone_pairs

P_IND = np.diag([-1.0, 1.0, 1.0])
BOX = [(-3.0, 3.0)] * 3


def test_sampled_pairs_lie_in_cone():
    cone = make_cone(P_IND)
    pairs = sample_cone_pairs(np.random.default_rng(42), BOX, cone, 50)
    assert len(pairs) == 50
    for a, b in pairs:
        assert cone_locate(cone, a - b) is not ConeLocation.OUTSIDE
        for p, (lo, hi) in zip(np.concatenate([a, b]), BOX * 2):
            assert lo <= p <= hi


def test_boundary_accepted_when_not_strict():
    # interior and boundary differences are accepted, never outside ones
    cone = make_cone(P_IND)
    pairs = sample_cone_pairs(np.random.default_rng(5), BOX, cone, 30)
    assert len(pairs) == 30
    locs = {cone_locate(cone, a - b) for a, b in pairs}
    assert ConeLocation.OUTSIDE not in locs


def test_sampling_is_seed_deterministic():
    cone = make_cone(P_IND)
    p1 = sample_cone_pairs(np.random.default_rng(42), BOX, cone, 20)
    p2 = sample_cone_pairs(np.random.default_rng(42), BOX, cone, 20)
    for (a1, b1), (a2, b2) in zip(p1, p2):
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_thin_cone_exhausts(monkeypatch):
    # a nearly positive definite P leaves almost no negative directions
    monkeypatch.setattr(sampling, "MAX_SAMPLING_ATTEMPTS", 2000)
    cone = make_cone(np.diag([-1e-6, 1.0, 1.0]))
    with pytest.raises(SamplingExhausted):
        sample_cone_pairs(np.random.default_rng(1), BOX, cone, 10)
