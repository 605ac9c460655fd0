"""Verify a dominance certificate over a matrix polytope.

The running example: a mass-spring system with a saturating spring force
7*tanh(x1) - 5*x1. Its Jacobian varies in a single entry, the spring
stiffness, which stays inside [-5, 2]. Checking the linear matrix
inequality at the two extreme stiffness matrices certifies it for every
system in between, because the residual is affine in the system matrix.
"""

from spdominance import (CONE_BOUNDARY_BAND, certify_polytope, cone_ratio, inertia,
                         make_cone, symmetric, vertex_stack)

P_r = symmetric([[-5.1987, 3.6260], [3.6260, 6.1987]])
print("inertia of P_r:", inertia(P_r))   # one negative direction

vertices = vertex_stack([
    [[0.0, 1.0], [-5.0, -5.0]],   # stiffest spring
    [[0.0, 1.0], [2.0, -5.0]],    # softest (near the origin)
])

result = certify_polytope(P_r, vertices, lam=2.0, sigma=0.01)
print("feasible:", result.feasible)
for i, m in enumerate(result.margins):
    print(f"  vertex {i}: margin {m:+.4f}")

# the same P defines a quadratic cone; trajectory differences of a
# 1-dominant system are eventually ordered by it. v lies in the cone's
# interior, on its boundary or outside it as v^T P v / ||v||^2 lies below,
# within or above a small band around zero
cone = make_cone(P_r)
vectors = [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
for v, ratio in zip(vectors, cone_ratio(cone, vectors)):
    where = ("interior" if ratio < -CONE_BOUNDARY_BAND else
             "outside" if ratio > CONE_BOUNDARY_BAND else "boundary")
    print(f"  {v} is {where}")

# margins shift linearly with sigma, so the worst margin tells how much
# decay-rate slack the certificate has
loose = certify_polytope(P_r, vertices, lam=2.0, sigma=0.5)
print("worst margin at sigma=0.5:", f"{loose.worst_margin:+.4f}")
