"""Simulate the spring system and probe cone invariance along trajectories.

The saturating spring with a fast first-order filter has three equilibria:
the origin and a symmetric pair at +/- x* where 7 tanh(x*) = 5 x*. A
1-dominant system cannot oscillate forever; bounded trajectories settle
toward equilibria, and differences of nearby trajectories order themselves
by the certificate cone.
"""

import numpy as np

from spdominance import (CONE_BOUNDARY_BAND, SPRING_INITIAL_CONDITIONS,
                         certificate_cone, cone_ratio, find_equilibria,
                         integrate, monotone_probe,
                         nonlinear_spring_certificate, nonlinear_spring_system)

sys_ = nonlinear_spring_system(eps=0.01)
cert = nonlinear_spring_certificate()

print("equilibria:")
for q in find_equilibria(sys_):
    print("  ", np.round(q, 6))

# the five reference trajectories run as one batch under one adaptive step
print("\ntrajectories (t_final = 9):")
times, states, stats = integrate(sys_, SPRING_INITIAL_CONDITIONS, (0, 9.0))
for ic, final in zip(SPRING_INITIAL_CONDITIONS, states[-1]):
    print(f"  from {ic}: final state {np.round(final, 4)}")
print(f"  ({stats['steps']} steps, {stats['rejected']} rejected)")

# classify the difference of two runs against the certificate cone at a
# few times. The certificate holds in the decoupled coordinates (x, z - x2),
# so the cone is blkdiag(P_r, P_f) taken there; the probe below samples and
# classifies in this same cone. Both runs go in one batch, so they land on
# the same sample times. One cone_ratio call takes the differences at every
# time: a ratio below -CONE_BOUNDARY_BAND is interior, one above
# +CONE_BOUNDARY_BAND outside, and one in between on the boundary.
cone = certificate_cone(sys_, cert)
times, states, _ = integrate(sys_, [[1.0, 1.0, 1.0], [0.5, 0.8, 1.0]], (0, 8.0),
                             sample_times=[0.5, 2.0, 8.0])
print("\ndifference of two trajectories vs the cone:")
for t, ratio in zip(times, cone_ratio(cone, states[:, 0] - states[:, 1])):
    where = ("interior" if ratio < -CONE_BOUNDARY_BAND else
             "outside" if ratio > CONE_BOUNDARY_BAND else "boundary")
    print(f"  t={t:<4} {where}")

# the seeded probe does this at scale: 20 pairs x 200 sample times
probe = monotone_probe(sys_, cert, n_pairs=20, t_final=9.0, seed=42)
print(f"\nprobe: {probe['interior']} interior, "
      f"{probe['boundary_warnings']} boundary, {probe['outside']} outside "
      f"of {probe['total_classifications']} classifications")
