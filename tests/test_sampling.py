import numpy as np
import pytest

from spdominance import sampling
from spdominance.cone import ConeLocation, cone_locate, make_cone
from spdominance.errors import SamplingExhausted
from spdominance.sampling import SplitMix64, sample_cone_pairs

P_IND = np.diag([-1.0, 1.0, 1.0])
BOX = [(-3.0, 3.0)] * 3


def test_splitmix64_reference_sequence():
    # seed 0 values of the standard splitmix64 stream
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_deterministic():
    a = [SplitMix64(42).uniform() for _ in range(1)]
    run1 = SplitMix64(123)
    run2 = SplitMix64(123)
    assert [run1.next_u64() for _ in range(100)] == \
        [run2.next_u64() for _ in range(100)]
    assert a == [SplitMix64(42).uniform()]


def test_uniform_range():
    rng = SplitMix64(7)
    xs = np.array([rng.uniform(-2.0, 5.0) for _ in range(10_000)])
    assert xs.min() >= -2.0 and xs.max() < 5.0
    assert abs(xs.mean() - 1.5) < 0.1


def test_point_in_box():
    rng = SplitMix64(9)
    box = [(-1.0, 1.0), (0.0, 2.0)]
    for _ in range(100):
        p = rng.point_in_box(box)
        assert -1.0 <= p[0] <= 1.0 and 0.0 <= p[1] <= 2.0


def test_sampled_pairs_lie_in_cone():
    cone = make_cone(P_IND)
    pairs = sample_cone_pairs(SplitMix64(42), BOX, cone, 50)
    assert len(pairs) == 50
    for a, b in pairs:
        assert cone_locate(cone, a - b) is not ConeLocation.OUTSIDE
        for p, (lo, hi) in zip(np.concatenate([a, b]), BOX * 2):
            assert lo <= p <= hi


def test_boundary_accepted_when_not_strict():
    # interior and boundary differences are accepted, never outside ones
    cone = make_cone(P_IND)
    pairs = sample_cone_pairs(SplitMix64(5), BOX, cone, 30)
    assert len(pairs) == 30
    locs = {cone_locate(cone, a - b) for a, b in pairs}
    assert ConeLocation.OUTSIDE not in locs


def test_sampling_is_seed_deterministic():
    cone = make_cone(P_IND)
    p1 = sample_cone_pairs(SplitMix64(42), BOX, cone, 20)
    p2 = sample_cone_pairs(SplitMix64(42), BOX, cone, 20)
    for (a1, b1), (a2, b2) in zip(p1, p2):
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_thin_cone_exhausts(monkeypatch):
    # a nearly positive definite P leaves almost no negative directions
    monkeypatch.setattr(sampling, "MAX_SAMPLING_ATTEMPTS", 2000)
    cone = make_cone(np.diag([-1e-6, 1.0, 1.0]))
    with pytest.raises(SamplingExhausted):
        sample_cone_pairs(SplitMix64(1), BOX, cone, 10)
