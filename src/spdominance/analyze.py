"""Trajectory-level validation of dominance certificates: cone-invariance
probing of trajectory differences and convergence bookkeeping."""

from __future__ import annotations

import numpy as np

from .cone import CONE_BOUNDARY_BAND, cone_ratio
from .integrate import CONVERGENCE_TOL, detect_convergence, integrate
from .linalg import symmetric
from .sampling import sample_cone_pairs
from .systems import SPRING_T_FINAL

PROBE_PAIRS = 100
PROBE_SEED = 42
PROBE_SAMPLES = 200
# the probe passes with nothing outside and at most this share of boundary hits
PROBE_BOUNDARY_ALLOWANCE = 0.01


def certificate_cone(sys, cert):
    """Cone matrix of the certificate in the original coordinates, read-only.

    The slow and fast certificates hold in the decoupled coordinates
    w = T0^{-1} s, so the cone matrix is Q = T0^{-T} blkdiag(P_r, P_f) T0^{-1}
    with T0^{-1} = [[I, 0], [L0, I]] and L0 = sys.L0. The eps -> 0 transform
    is used because it is constant, so one cone serves every Jacobian of the
    hull. T0^{-1} is unit lower-triangular, so Q keeps the inertia the
    certificate checked for blkdiag(P_r, P_f) (Sylvester's law): rank cert.p.
    """
    cert.check_blocks(sys.n_r, sys.n_f)
    n_r, n_f = cert.n_r, cert.n_f
    T_inv = np.eye(n_r + n_f)
    T_inv[n_r:, :n_r] = sys.L0
    P = np.zeros((n_r + n_f, n_r + n_f))
    P[:n_r, :n_r] = cert.P_r
    P[n_r:, n_r:] = cert.P_f
    return symmetric(T_inv.T @ P @ T_inv)


def monotone_probe(sys, cert, n_pairs=PROBE_PAIRS, t_final=SPRING_T_FINAL,
                   seed=PROBE_SEED, riders=None):
    """Empirically check strong monotonicity: pairs with initial difference
    inside the certificate cone are integrated and their difference is
    classified at PROBE_SAMPLES times t > 0 with boundary band CONE_BOUNDARY_BAND.

    Both the sampling of initial differences and their classification use
    the cone of certificate_cone, i.e. blkdiag(P_r, P_f) taken in the
    decoupled coordinates of the eps -> 0 transform T0; the report's
    "cone" entry carries its L0 and matrix.

    Boundary hits at t > 0 are warnings, not failures: numerical
    trajectories may graze the cone boundary within tolerance.

    All 2 * n_pairs states go through integrate as one batch, which lands
    on each sample time; the report's "integrator" entry counts its steps.
    "worst_margin_at" gives the worst margin's pair, time and initial states.

    riders, initial states of other trajectories, ride unclassified after the
    pairs in the same batch (one that escapes fails the probe); their run is
    returned as "riders": (times, states, stats), on t = 0 and the sample times.
    """
    cone = certificate_cone(sys, cert)
    box = [sys.omega[name] for name in sys.names]
    pairs = sample_cone_pairs(np.random.default_rng(seed), box, cone, n_pairs)
    sample_times = [k * t_final / PROBE_SAMPLES for k in range(1, PROBE_SAMPLES + 1)]

    x0s = np.array([p for pair in pairs for p in pair])
    n_rows = len(x0s)
    if riders is not None:
        x0s = np.vstack([x0s, riders])
    # end at the last sample, which k * t_final / PROBE_SAMPLES may round off t_final
    times, states, stats = integrate(sys, x0s, (0.0, sample_times[-1]), sample_times)

    # (sample, pair) ratios of each pair's difference at t > 0
    ratio = cone_ratio(cone, states[1:, :n_rows:2] - states[1:, 1:n_rows:2])
    sample, worst = np.unravel_index(np.argmax(ratio), ratio.shape)
    interior = int(np.sum(ratio < -CONE_BOUNDARY_BAND))
    outside = int(np.sum(ratio > CONE_BOUNDARY_BAND))
    total = ratio.size
    boundary = total - interior - outside
    report = {
        "pairs": len(pairs),
        "samples_per_pair": PROBE_SAMPLES,
        "seed": seed,
        "t_final": t_final,
        "integrator": stats,
        "classification_tol": CONE_BOUNDARY_BAND,
        "boundary_allowance": PROBE_BOUNDARY_ALLOWANCE,
        "cone": {
            "transform": "T0^-1 = [[I, 0], [L0, I]], L0 = D^-1 C (eps -> 0)",
            "L0": sys.L0.tolist(),
            "matrix": cone.tolist(),
            "rank_k": cert.p,
            "used_for": "sampling and classification",
        },
        "interior": interior,
        "boundary_warnings": boundary,
        "outside": outside,
        "total_classifications": total,
        "worst_quadform_margin": float(ratio[sample, worst]),
        "worst_margin_at": {"pair": int(worst), "t": sample_times[sample],
                            "initial_states": [p.tolist() for p in pairs[worst]]},
        "all_interior": outside == 0 and boundary == 0,
        "passed": outside == 0 and boundary <= PROBE_BOUNDARY_ALLOWANCE * total,
    }
    if riders is not None:
        report["riders"] = (times, states[:, n_rows:], stats)
    return report


def convergence_report(trajectories, equilibria):
    """Per-trajectory convergence verdicts against a list of equilibria."""
    out = []
    for traj in trajectories:
        match = detect_convergence(traj, equilibria)
        out.append({
            "initial_state": [float(v) for v in traj.states[0]],
            "final_state": [float(v) for v in traj.final_state],
            "converged": match is not None,
            "matched_equilibrium": None if match is None else [float(v) for v in match],
            "tol": CONVERGENCE_TOL,
        })
    return out
