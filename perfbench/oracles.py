"""Independent oracles and the correctness gates built on them.

Nothing here calls spdominance: references come from scipy (brentq, Radau,
Sylvester solves) and numpy's eigvalsh on residuals assembled here. The
references are computed during set-up, before the program runs; the gates
compare the program's recorded outputs against them after it has run, so
no oracle work is ever inside a timing.

Each verify_* function takes one operation's recorded output and returns a
list of failure messages; an empty list means the operation passed.
"""

import numpy as np

from workloads import (LMI_EPS_MAX, PAPER_PROBE_PAIRS, PAPER_PROBE_SAMPLES, PAPER_T_FINAL,
                       SPRING_EPS, SPRING_INITIAL_CONDITIONS)

EQUILIBRIUM_TOL = 1e-8
PAPER_ENDPOINT_TOL = 1e-6
VARIATIONAL_ENDPOINT_TOL = 1e-7
MARGIN_RTOL = 1e-9
EPS_FLOOR = 1e-12
# reproduce-paper exits 2 while acceptance criteria 5 and 6 stand as
# failures; both 0 and 2 are verdicts, anything else is a failure.
VERDICT_EXITS = (0, 2)


def _radau(fun, y0, t_final):
    from scipy.integrate import solve_ivp
    sol = solve_ivp(fun, (0.0, t_final), y0, method="Radau",
                    rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"Radau reference failed: {sol.message}")
    return sol.y[:, -1]


def _spring(t, y, eps=SPRING_EPS):
    x1, x2, z = y[:3]
    return [x2, 7.0 * np.tanh(x1) - 5.0 * x1 - 5.0 * z, (x2 - z) / eps]


def _spring_variational(t, y, eps=SPRING_EPS):
    # base state, then delta' = J(base) delta with J written out by hand
    x1 = y[0]
    d1, d2, d3 = y[3:]
    slope = 7.0 / np.cosh(x1) ** 2 - 5.0
    return _spring(t, y, eps) + [d2, slope * d1 - 5.0 * d3, (d2 - d3) / eps]


def references(inputs):
    """Oracle values for one workload, computed during set-up."""
    workload = inputs["workload"]
    if workload == "paper":
        from scipy.optimize import brentq
        root = brentq(lambda x: 7.0 * np.tanh(x) - 5.0 * x, 0.5, 3.0, xtol=1e-15)
        return {
            "equilibria": [[-root, 0.0, 0.0], [0.0, 0.0, 0.0], [root, 0.0, 0.0]],
            "endpoints": [_radau(_spring, list(ic), PAPER_T_FINAL).tolist()
                          for ic in SPRING_INITIAL_CONDITIONS],
        }
    if workload == "lmi-sweep":
        return {"certify": [certify_margins(cfg) for cfg in inputs["systems"]]}
    if workload == "variational":
        return {"endpoints": [
            _radau(_spring_variational, list(x0) + list(d0), inputs["t_final"]).tolist()
            for x0, d0 in zip(inputs["x0"], inputs["delta0"])]}
    raise ValueError(f"unknown workload {workload!r}")


# -- lmi-sweep ---------------------------------------------------------------

def _margin(P, A, lam, sigma):
    """(largest eigenvalue, scale) of P A + A^T P + 2 lam P + sigma I."""
    S = P @ A + A.T @ P + 2.0 * lam * P + sigma * np.eye(len(P))
    return float(np.linalg.eigvalsh(0.5 * (S + S.T)).max()), max(1.0, float(np.abs(S).max()))


def _arrays(cfg):
    c = cfg["certificate"]
    return ([np.array(a) for a in cfg["A"]["vertices"]], np.array(cfg["B"]),
            np.array(cfg["C"]), [np.array(d) for d in cfg["D"]["vertices"]],
            np.array(c["P_r"]), np.array(c["P_f"]), c)


def certify_margins(cfg):
    """Slow margins over reduced-model vertices (A - B D^-1 C for every
    A, D pair, A-major) and fast margins over the D vertices."""
    A_verts, B, C, D_verts, P_r, P_f, c = _arrays(cfg)
    slow = [_margin(P_r, A - B @ np.linalg.solve(D, C), c["lambda_r"], c["sigma_r"])
            for A in A_verts for D in D_verts]
    fast = [_margin(P_f, D, c["lambda_f"], c["sigma_f"]) for D in D_verts]
    return {"slow": slow, "fast": fast,
            "feasible": all(m <= 0.0 for m, _ in slow + fast)}


def chang_L(A, B, C, D, eps, max_iter=50):
    """Slow-manifold solution L of D L - C - eps L (A - B L) = 0 by Newton's
    method, one Sylvester solve per step, from L0 = D^-1 C."""
    from scipy.linalg import solve_sylvester
    L = np.linalg.solve(D, C)
    scale = max(1.0, np.abs(C).max())
    for _ in range(max_iter):
        F = D @ L - C - eps * L @ (A - B @ L)
        if np.abs(F).max() <= 1e-13 * scale:
            return L
        L = L + solve_sylvester(D + eps * L @ B, -eps * (A - B @ L), -F)
    raise RuntimeError(f"Newton reference for L did not converge at eps={eps:.3e}")


def block_margins(cfg, eps):
    """Proof-level block margins at eps for every (A, D) vertex pair: slow
    block A - B L with P_r, fast block D/eps + L B with P_f, both at rate
    lambda_r and sigma = min(sigma_r, sigma_f) / 2."""
    A_verts, B, C, D_verts, P_r, P_f, c = _arrays(cfg)
    sigma = 0.5 * min(c["sigma_r"], c["sigma_f"])
    out = []
    for A in A_verts:
        for D in D_verts:
            L = chang_L(A, B, C, D, eps)
            out.append(_margin(P_r, A - B @ L, c["lambda_r"], sigma))
            out.append(_margin(P_f, D / eps + L @ B, c["lambda_r"], sigma))
    return out


def _feasible_at(cfg, eps):
    """Failure messages for the block conditions at eps; empty if feasible."""
    try:
        margins = block_margins(cfg, eps)
    except RuntimeError as e:
        return [str(e)]
    return [f"block margin {m!r} > 0 at eps={eps!r}"
            for m, scale in margins if m > MARGIN_RTOL * scale]


def verify_lmi(cfg, ref, out, cache):
    """One system through certify and epsilon-star."""
    if out.get("error"):
        return [f"raised: {out['error']}"]
    fails = []
    want_exit = 0 if ref["feasible"] else 2
    if out["certify_exit"] != want_exit:
        fails.append(f"certify exit {out['certify_exit']}, oracle expects {want_exit}")
    got = out["certify_report"].get("certificate", {})
    for block in ("slow", "fast"):
        margins = got.get(block, {}).get("margins", [])
        if len(margins) != len(ref[block]):
            fails.append(f"{block}: {len(margins)} margins, oracle has {len(ref[block])}")
            continue
        for k, (m, (m_ref, scale)) in enumerate(zip(margins, ref[block])):
            if abs(m - m_ref) > MARGIN_RTOL * scale:
                fails.append(f"{block} margin {k}: {m!r} vs eigvalsh {m_ref!r}")

    eps_hat = out["eps_report"].get("epsilon_star")
    if out["eps_exit"] == 0:
        if eps_hat is None or not 0.0 < eps_hat <= LMI_EPS_MAX:
            return fails + [f"epsilon-star returned {eps_hat!r}"]
        if eps_hat not in cache:
            cache[eps_hat] = _feasible_at(cfg, eps_hat)
        fails += cache[eps_hat]
    elif out["eps_exit"] == 2 and eps_hat is None:
        if "floor" not in cache:
            cache["floor"] = ([] if _feasible_at(cfg, EPS_FLOOR) else
                              [f"epsilon-star infeasible at eps={EPS_FLOOR}, "
                               "oracle finds it feasible"])
        fails += cache["floor"]
    else:
        fails.append(f"epsilon-star exit {out['eps_exit']} with eps {eps_hat!r}")
    return fails


# -- paper -------------------------------------------------------------------

def verify_paper(ref, out):
    """One reproduce-paper run."""
    if out.get("error"):
        return [f"raised: {out['error']}"]
    fails = []
    if out["exit"] not in VERDICT_EXITS:
        fails.append(f"exit code {out['exit']}")
    rep = out["report"]
    eqs = rep.get("equilibria", [])
    if len(eqs) != len(ref["equilibria"]):
        fails.append(f"{len(eqs)} equilibria, expected {len(ref['equilibria'])}")
    else:
        for q, q_ref in zip(sorted(eqs), ref["equilibria"]):
            if np.abs(np.subtract(q, q_ref)).max() > EQUILIBRIUM_TOL:
                fails.append(f"equilibrium {q} vs brentq {q_ref}")
    rows = out["csv_last_rows"]
    if len(rows) != len(ref["endpoints"]):
        fails.append(f"{len(rows)} trajectory CSVs, expected {len(ref['endpoints'])}")
    for k, (row, end) in enumerate(zip(rows, ref["endpoints"])):
        if abs(row[0] - PAPER_T_FINAL) > 1e-9:
            fails.append(f"trajectory {k} ends at t={row[0]!r}")
        err = float(np.abs(np.subtract(row[1:], end)).max())
        if err > PAPER_ENDPOINT_TOL:
            fails.append(f"trajectory {k} endpoint off Radau by {err:.3e}")
    if rep.get("certificate", {}).get("feasible") is not True:
        fails.append("certificate not feasible")
    eps_hat = rep.get("epsilon_star")
    if eps_hat is None or not eps_hat > SPRING_EPS:
        fails.append(f"epsilon_star {eps_hat!r} not above eps={SPRING_EPS}")
    probe = rep.get("monotone_probe", {})
    total = PAPER_PROBE_PAIRS * PAPER_PROBE_SAMPLES
    counted = sum(probe.get(k, 0) for k in ("interior", "boundary_warnings", "outside"))
    if probe.get("total_classifications") != total or counted != total:
        fails.append(f"probe classified {probe.get('total_classifications')} "
                     f"({counted} by class), expected {total}")
    return fails


# -- variational -------------------------------------------------------------

def verify_variational(ref_end, out):
    """One integrate_variational call: base and delta endpoints."""
    if out.get("error"):
        return [f"raised: {out['error']}"]
    err = float(np.abs(np.subtract(out["base"] + out["delta"], ref_end)).max())
    if not err <= VARIATIONAL_ENDPOINT_TOL:
        return [f"endpoint off Radau by {err:.3e}"]
    return []
