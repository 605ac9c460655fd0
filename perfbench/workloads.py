"""Seeded inputs for the benchmark workloads.

Everything here is benchmark-side: it builds plain configs and arrays from
a seed with numpy's own generator, and never calls spdominance. The same
seed always gives the same inputs. Why each workload exists is written up
in README.md next to this file.
"""

import numpy as np

WORKLOADS = ("paper", "lmi-sweep", "variational")

# The paper's worked example: a mass on a saturating spring with a fast
# first-order filter on the velocity feedback. reproduce-paper builds it
# internally; the benchmark keeps its own copy so the oracle does not lean
# on the library's definitions.
SPRING_EPS = 0.01
SPRING_BOX = 3.0
SPRING_INITIAL_CONDITIONS = (
    (1.0, 1.0, 1.0),
    (-1.0, 2.0, 1.0),
    (-0.5, -2.0, 1.0),
    (-2.0, -0.5, 1.0),
    (0.25, 0.5, -1.0),
)
PAPER_T_FINAL = 9.0
PAPER_PROBE_PAIRS = 100
PAPER_PROBE_SAMPLES = 200

# One lmi-sweep pass: (n_r, n_f, A vertices, D vertices, certificate
# feasible). The shapes are fixed so every seed does comparable work; the
# seed draws the numbers. They cover n_r 2..8, n_f 1..4 and 1..4 vertices
# per polytope, with a quarter of the certificates infeasible.
LMI_SHAPES = (
    (2, 1, 4, 1, True),
    (2, 2, 2, 2, True),
    (3, 1, 1, 2, True),
    (3, 2, 1, 3, False),
    (4, 1, 3, 1, True),
    (4, 4, 1, 1, True),
    (5, 3, 1, 2, True),
    (5, 1, 2, 1, False),
    (6, 3, 2, 1, True),
    (7, 2, 1, 1, True),
    (8, 4, 1, 1, True),
    (8, 1, 1, 4, False),
)
# Each shape is drawn this many times a pass, in different coordinates: how
# many Chang iterations a draw needs varies by a few percent, and the pass
# averages over the draws.
LMI_DRAWS = 2
LMI_EPS_MAX = 1.0
LMI_LAMBDA_F = 0.25
LMI_SIGMA_F = 0.25

VARIATIONAL_DRAWS = 12
VARIATIONAL_T_FINAL = 0.15  # 15 eps: the boundary layer, then the slow phase


def spring_config():
    """The worked example as a nonlinear config (no certificate needed)."""
    names = ("x1", "x2", "z1")
    return {
        "n_r": 2, "n_f": 1, "eps": SPRING_EPS,
        "f": ["x2", "7*tanh(x1) - 5*x1 - 5*z1"],
        "g": ["x2 - z1"],
        "omega": {n: [-SPRING_BOX, SPRING_BOX] for n in names},
    }


def generate(workload, seed):
    if workload == "paper":
        return {"workload": "paper", "fixed_inputs": True}
    if workload == "lmi-sweep":
        rng = np.random.default_rng(seed)
        return {"workload": workload, "eps_max": LMI_EPS_MAX,
                "systems": [lmi_system(rng, i, *shape) for _ in range(LMI_DRAWS)
                            for i, shape in enumerate(LMI_SHAPES)]}
    if workload == "variational":
        rng = np.random.default_rng(seed)
        box = SPRING_BOX
        return {"workload": workload, "system": spring_config(),
                "t_final": VARIATIONAL_T_FINAL,
                "x0": rng.uniform(-box, box, (VARIATIONAL_DRAWS, 3)).tolist(),
                "delta0": rng.uniform(-box, box, (VARIATIONAL_DRAWS, 3)).tolist()}
    raise ValueError(f"unknown workload {workload!r}")


def _lmi_margin(P, A, lam):
    """Largest eigenvalue of P A + A^T P + 2 lam P (sigma left out)."""
    return float(np.linalg.eigvalsh(P @ A + A.T @ P + 2.0 * lam * P).max())


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def lmi_system(rng, index, n_r, n_f, n_a, n_d, feasible):
    """A linear two-time-scale config built by congruence around a known
    rank-1 certificate.

    In canonical coordinates the certificate is diag(-1, 1, ..., 1) and each
    reduced-model vertex is nearly diagonal: its first mode is slower than
    -lambda_r and the others faster, which is what makes the certificate
    hold. The fast blocks are stable but slower than lambda_r, so the
    proof-level conditions fail at eps = 1 and epsilon-star has to bisect.
    In an infeasible certificate the first vertex's first mode is too fast.

    The canonical system is fixed per shape (drawn from the shape's index).
    The seed draws orthogonal changes of the slow and fast coordinates, Q and
    R, which move every entry but keep the spectra, the coupling and the
    certificate margins. How long the bisection and the Chang solves take
    depends on those, so a pass costs about the same on every seed.
    """
    canon = np.random.default_rng(1000 + index)
    lam = 1.5
    P_hat = np.diag([-1.0] + [1.0] * (n_r - 1))
    while True:
        D_verts = []
        for _ in range(n_d):
            K = canon.standard_normal((n_f, n_f))
            K *= 0.3 / max(1e-12, np.linalg.norm(K))
            D_verts.append(-np.eye(n_f) + 0.5 * (K - K.T) + 0.1 * (K + K.T))
        B = canon.standard_normal((n_r, n_f))
        C = canon.standard_normal((n_f, n_r))
        B *= 0.3 / np.linalg.norm(B)
        C *= 0.3 / np.linalg.norm(C)
        A_verts = []
        for i in range(n_a):
            diag = -lam - np.linspace(0.5, 1.0, n_r)
            diag[0] = -lam + (0.6 if feasible or i > 0 else -0.6)
            A0 = np.diag(diag + 0.1 * canon.uniform(-1.0, 1.0, n_r))
            A0 += 0.03 * canon.standard_normal((n_r, n_r))
            A_verts.append(A0 - B @ C)  # A0 = A - B D_nom^-1 C with D_nom = -I
        worst = max(_lmi_margin(P_hat, A - B @ np.linalg.solve(D, C), lam)
                    for A in A_verts for D in D_verts)
        if feasible and worst < -0.05:
            sigma_r = -0.5 * worst
            break
        if not feasible and worst > 0.05:
            sigma_r = 0.1
            break

    Q = _orthogonal(rng, n_r)
    R = _orthogonal(rng, n_f)
    return {
        "spec_version": 1,
        "kind": "linear",
        "eps": 0.01,
        "A": {"vertices": [(Q @ A @ Q.T).tolist() for A in A_verts]},
        "B": (Q @ B @ R.T).tolist(),
        "C": (R @ C @ Q.T).tolist(),
        "D": {"vertices": [(R @ D @ R.T).tolist() for D in D_verts]},
        "certificate": {
            "P_r": (Q @ P_hat @ Q.T).tolist(), "P_f": np.eye(n_f).tolist(),
            "lambda_r": lam, "lambda_f": LMI_LAMBDA_F,
            "sigma_r": sigma_r, "sigma_f": LMI_SIGMA_F, "p": 1,
        },
    }
