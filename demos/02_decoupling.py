"""Exact slow/fast decoupling and the certified eps threshold.

A two-time-scale linear system [x' = A x + B z, eps z' = C x + D z] can be
block-diagonalized exactly by a transformation built from the solution L of
a quadratic matrix equation; L comes from the slow eigenvectors of
[[eps A, eps B], [C, D]]. As eps -> 0, L approaches the reduced-model gain
D^{-1} C and the slow block approaches A - B D^{-1} C.

The threshold search then bisects for the largest eps at which the
dominance certificate still holds for both decoupled blocks.
"""

import numpy as np

from spdominance import (MatrixPolytope, build_decoupling, epsilon_star,
                         full_system_matrix, nonlinear_spring_certificate,
                         reduced_model, solve_chang_lti)

A = np.array([[0.0, 1.0], [2.0, 0.0]])
B = np.array([[0.0], [-5.0]])
C = np.array([[0.0, 1.0]])
D = np.array([[-1.0]])

L0, H0, A0 = reduced_model(A, B, C, D)
print("reduced-model gain L0:", L0)
print("reduced slow matrix A0:\n", A0)

for eps in (0.02, 0.01, 0.001):
    L = solve_chang_lti(A, B, C, D, eps)
    print(f"eps={eps:<6} ||L - L0|| = {np.linalg.norm(L - L0):.2e}"
          f"  (first order in eps)")

dec = build_decoupling(A, B, C, D, 0.01)
M = full_system_matrix(A, B, C, D, 0.01)
Md = dec.T_inv @ M @ dec.T
print("off-diagonal residual after transforming:",
      f"{np.linalg.norm(Md[:2, 2:]) + np.linalg.norm(Md[2:, :2]):.2e}")
print("det T_inv:", np.linalg.det(dec.T_inv))  # always exactly 1

# certified threshold for the spring example: the A-block hull covers the
# varying stiffness, and the certificate must hold for both blocks
cert = nonlinear_spring_certificate()
A_poly = MatrixPolytope([[[0.0, 1.0], [-5.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]])
eps_hat = epsilon_star(A_poly, B, C, MatrixPolytope([D]), cert)
print(f"certified eps threshold: {eps_hat:.4f}  (the example runs at 0.01)")
