import numpy as np
import pytest

from spdominance import sampling
from spdominance.analyze import certificate_cone
from spdominance.cone import CONE_BOUNDARY_BAND, cone_ratio, make_cone
from spdominance.errors import SamplingExhausted
from spdominance.sampling import sample_cone_pairs
from spdominance.systems import nonlinear_spring_certificate, nonlinear_spring_system

P_IND = np.diag([-1.0, 1.0, 1.0])
BOX = [(-3.0, 3.0)] * 3


def one_at_a_time_pairs(rng, box, cone, n_pairs):
    """Reference sampler: one (2, d) draw per candidate, classified by
    cone_ratio on its one difference vector, kept unless that difference is
    zero or outside the band. Draws at most MAX_SAMPLING_ATTEMPTS candidates."""
    lo, hi = np.array(box, dtype=float).T
    pairs = []
    for attempts in range(1, sampling.MAX_SAMPLING_ATTEMPTS + 1):
        a, b = rng.uniform(lo, hi, size=(2, len(lo)))
        if np.any(a - b) and cone_ratio(cone, a - b) <= CONE_BOUNDARY_BAND:
            pairs.append((a, b))
            if len(pairs) == n_pairs:
                return pairs
    raise SamplingExhausted(f"{attempts} rejections for {len(pairs)}/{n_pairs} pairs")


def assert_same_pairs(got, expect):
    assert len(got) == len(expect)
    for (a, b), (a_ref, b_ref) in zip(got, expect):
        assert a.tolist() == a_ref.tolist() and b.tolist() == b_ref.tolist()


def test_sampled_pairs_lie_in_cone():
    cone = make_cone(P_IND)
    pairs = sample_cone_pairs(np.random.default_rng(42), BOX, cone, 50)
    assert len(pairs) == 50
    for a, b in pairs:
        assert np.any(a - b) and cone_ratio(cone, a - b) <= CONE_BOUNDARY_BAND
        for p, (lo, hi) in zip(np.concatenate([a, b]), BOX * 2):
            assert lo <= p <= hi


def test_boundary_accepted_when_not_strict():
    # interior and boundary differences are accepted, never outside ones
    cone = make_cone(P_IND)
    pairs = sample_cone_pairs(np.random.default_rng(5), BOX, cone, 30)
    assert len(pairs) == 30
    assert max(cone_ratio(cone, a - b) for a, b in pairs) <= CONE_BOUNDARY_BAND


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


def test_spring_pairs_match_one_at_a_time_sampler():
    sys_ = nonlinear_spring_system()
    cone = certificate_cone(sys_, nonlinear_spring_certificate())
    box = [sys_.omega[name] for name in sys_.names]
    assert_same_pairs(sample_cone_pairs(np.random.default_rng(42), box, cone, 100),
                      one_at_a_time_pairs(np.random.default_rng(42), box, cone, 100))


@pytest.mark.parametrize("d", range(2, 13))
def test_random_cone_pairs_match_one_at_a_time_sampler(d):
    # from d = 4 on a block's cone_ratio may differ from a row's in the last
    # bit, so a candidate one ulp from the band edge could go either way
    rng = np.random.default_rng(d)
    for case in range(5):
        ev = 10.0 ** rng.uniform(-1, 1, d)
        ev[:rng.integers(1, d)] *= -1.0
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cone = make_cone(Q @ np.diag(ev) @ Q.T)
        box = [(-rng.uniform(1, 3), rng.uniform(1, 3)) for _ in range(d)]
        assert_same_pairs(sample_cone_pairs(np.random.default_rng(case), box, cone, 20),
                          one_at_a_time_pairs(np.random.default_rng(case), box, cone, 20))


def test_exhaustion_counts_every_attempt(monkeypatch):
    # 2000 is no multiple of the block, so the last block is cut to the budget
    monkeypatch.setattr(sampling, "MAX_SAMPLING_ATTEMPTS", 2000)
    cone = make_cone(np.diag([-1e-2, 1.0, 1.0]))
    with pytest.raises(SamplingExhausted, match="^2000 rejections for 11/50 pairs$"):
        one_at_a_time_pairs(np.random.default_rng(1), BOX, cone, 50)
    with pytest.raises(SamplingExhausted, match="^2000 rejections for 11/50 pairs; "
                                                "the cone is too thin in the sampling box$"):
        sample_cone_pairs(np.random.default_rng(1), BOX, cone, 50)
