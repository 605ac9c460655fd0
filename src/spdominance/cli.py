"""Command-line surface.

Subcommands: certify, decouple, epsilon-star, simulate, monotone-probe,
reproduce-paper. `main` runs each one: it loads the JSON config (reproduce-paper
builds the spring's), builds the system, starts the report, writes it with a
fixed key order to --report or <out>/report.json, and picks the exit code.

Exit codes: 0 = all requested checks passed, 1 = usage or configuration
error (no report is written), 2 = a mathematical check failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys as _sys
import warnings
from functools import cache

import numpy as np

from . import __version__
from .analyze import PROBE_PAIRS, PROBE_SEED, convergence_report, monotone_probe
from .certify import FEASIBILITY_MARGIN, MatrixPolytope, SPDominanceCertificate, certify_sp
from .cone import CONE_BOUNDARY_BAND
from .decouple import (BISECT_STEPS, EPS_FLOOR, EPS_MAX, InfeasibleAtFloor,
                       build_decoupling, chang_residuals, coupling_residual_limit,
                       epsilon_star, full_system_matrix, reduced_model)
from .errors import (ConfigError, DimensionMismatch, EvalError, NoConvergence, NonFinite,
                     NonpositiveEps, NotScalarParameterized, SamplingExhausted, SingularD)
from .integrate import (CONVERGENCE_TOL, Trajectory, find_equilibria, integrate,
                        write_trajectory_csv)
from .systems import (SPRING_BOX, SPRING_EPS, SPRING_F, SPRING_G, SPRING_INITIAL_CONDITIONS,
                      SPRING_SIGMA_R, SPRING_T_FINAL, LinearSPSystem, NonlinearSPSystem,
                      a_block_hull, jacobians, nonlinear_spring_certificate, state_names)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
BLOCK_DIAGONAL_TOL = 1e-8  # decouple's bound on the off-diagonal blocks of T^-1 M T
CONFIG_KEYS = {"spec_version", "kind", "n_r", "n_f", "eps", "f", "g", "omega", "A", "B", "C",
               "D", "certificate", "initial_conditions", "linearization_point"}


# -- configuration ----------------------------------------------------------

def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict) or cfg.get("spec_version") != 1:
        raise ConfigError("config must be an object declaring \"spec_version\": 1")
    if cfg.get("kind") not in ("linear", "nonlinear"):
        raise ConfigError("config \"kind\" must be \"linear\" or \"nonlinear\"")
    if "hull" in cfg:
        raise ConfigError("hull is not read: the Jacobian hull is enclosed from f, g and omega")
    if cfg.keys() - CONFIG_KEYS:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(cfg.keys() - CONFIG_KEYS))}")
    return cfg


def _matrix_or_polytope(value, what):
    if isinstance(value, dict):
        if "vertices" not in value:
            raise ConfigError(f"{what}: polytope object needs a \"vertices\" list")
        return MatrixPolytope(value["vertices"])
    return MatrixPolytope([value])


def numeric_field(value, field):
    """A config value as a float array; ConfigError naming the field otherwise."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{field} must be numbers, got {value!r}") from None


def build_system(cfg):
    try:
        if cfg["kind"] == "nonlinear":
            return NonlinearSPSystem(n_r=int(cfg["n_r"]), n_f=int(cfg["n_f"]),
                                     f=cfg["f"], g=cfg["g"],
                                     eps=float(cfg["eps"]), omega=cfg.get("omega"))
        return LinearSPSystem(A=_matrix_or_polytope(cfg["A"], "A"),
                              B=cfg["B"], C=cfg["C"],
                              D=_matrix_or_polytope(cfg["D"], "D"),
                              eps=float(cfg["eps"]), omega=cfg.get("omega"))
    except KeyError as e:
        raise ConfigError(f"config missing required field {e}")
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e))


def build_certificate(cfg):
    block = cfg.get("certificate")
    if not isinstance(block, dict):
        raise ConfigError("config needs a \"certificate\" object")
    try:
        return SPDominanceCertificate(
            P_r=block["P_r"], P_f=block["P_f"],
            lambda_r=float(block["lambda_r"]), lambda_f=float(block["lambda_f"]),
            sigma_r=float(block["sigma_r"]), sigma_f=float(block["sigma_f"]),
            p=int(block["p"]))
    except KeyError as e:
        raise ConfigError(f"certificate block missing field {e}")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid certificate: {e}")


def coupling_inputs(system):
    """(A polytope, B, C, D polytope) for the eps-threshold search."""
    if isinstance(system, NonlinearSPSystem):
        A_poly, B, C, D = a_block_hull(system)
        return A_poly, B, C, MatrixPolytope([D])
    return system.A, system.B, system.C, system.D


def slow_fast_polytopes(system):
    """Polytopes of reduced-model matrices and fast blocks for certification:
    one reduced matrix A - B D^{-1} C per (A, D) vertex pair."""
    A_poly, B, C, D_poly = coupling_inputs(system)
    verts = [reduced_model(A, B, C, D)[2]
             for A in A_poly.vertices for D in D_poly.vertices]
    return MatrixPolytope(verts), D_poly


# -- reports ----------------------------------------------------------------

def new_report(args):
    rep = {"tool": "spdominance", "version": __version__, "command": args.command}
    if not args.no_timestamp:
        rep["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return rep


def cert_result_dict(res):
    return {
        "feasible": bool(res.feasible),
        "worst_margin": float(res.worst_margin),
        "worst_vertex": int(res.worst_vertex),
        "margins": [float(m) for m in res.margins],
    }


def certificate_report(system, cert):
    """Slow and fast certificate verdicts over the system's polytopes."""
    slow_res, fast_res = certify_sp(cert, *slow_fast_polytopes(system))
    return {
        "slow": cert_result_dict(slow_res),
        "fast": cert_result_dict(fast_res),
        "feasible": bool(slow_res.feasible and fast_res.feasible),
    }


def write_report(report, path):
    if path:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def _failed(label, error):
    """Print a failed check as one line and return its report entry."""
    print(f"{label}: {error}")
    return {"error": str(error)}


# -- stages ------------------------------------------------------------------
# A subcommand takes the parsed args, with main's cfg and system on them, and
# the report main started; it fills the report, prints its lines and returns
# its verdict, and a false or None verdict exits 2. Each stage serves its
# subcommand and reproduce-paper: it does the work, handles the failures its
# check can report, printing one line for each, and returns (fragment,
# verdict): its report entries, and its verdict, which is None after a failure.

def epsilon_star_stage(system, cert, eps_max=EPS_MAX):
    """The eps threshold and its re-check's violations; the verdict is the threshold."""
    A_poly, B, C, D_poly = coupling_inputs(system)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            eps_hat = epsilon_star(A_poly, B, C, D_poly, cert, eps_max=eps_max)
            fragment = {"monotone_violations": [w.message.eps for w in caught
                                                if hasattr(w.message, "eps")]}
        except InfeasibleAtFloor as e:
            eps_hat, fragment = None, _failed("infeasible", e)
    for w in caught:  # recorded to be read, then shown or filtered as before
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return {"epsilon_star": eps_hat, **fragment}, eps_hat


def simulation_stage(system, ics, t_final, tol, out):
    """The equilibria, then the trajectories from ics to t_final, each
    matched to an equilibrium and written into out as trajectory_NN.csv;
    the verdict is whether every trajectory converged."""
    equilibria = (find_equilibria(system) if isinstance(system, NonlinearSPSystem)
                  else [np.zeros(system.dim)])
    fragment = {"equilibria": [[float(v) for v in q] for q in equilibria]}
    try:
        times, states, _ = integrate(system, ics, (0.0, t_final))
    except NonFinite as e:
        return {**fragment, **_failed("diverged", e)}, None
    trajectories = [Trajectory(times, states[:, i]) for i in range(states.shape[1])]
    verdicts = convergence_report(trajectories, equilibria, tol=tol)
    fragment["trajectories"] = verdicts
    os.makedirs(out, exist_ok=True)
    fragment["csv_files"] = [os.path.join(out, f"trajectory_{i:02d}.csv")
                             for i in range(len(trajectories))]
    for traj, path in zip(trajectories, fragment["csv_files"]):
        write_trajectory_csv(traj, path, n_r=system.n_r)
    return fragment, all(v["converged"] for v in verdicts)


def probe_stage(system, cert, n_pairs, t_final, seed):
    """The seeded monotonicity probe; the verdict is whether it passed."""
    try:
        probe = monotone_probe(system, cert, n_pairs=n_pairs, t_final=t_final, seed=seed)
    except NonFinite as e:
        return _failed("diverged", e), None
    except SamplingExhausted as e:
        return _failed("sampling exhausted", e), None
    return {"monotone_probe": probe}, probe["passed"]


# -- subcommands ------------------------------------------------------------

def cmd_certify(args, report):
    report["tolerances"] = {"feasibility_margin": FEASIBILITY_MARGIN}
    report["certificate"] = certificate_report(args.system, build_certificate(args.cfg))
    for block in ("slow", "fast"):
        res = report["certificate"][block]
        print(f"{block} block: worst margin {res['worst_margin']:.6g} "
              f"({'feasible' if res['feasible'] else 'INFEASIBLE'})")
    return report["certificate"]["feasible"]


def cmd_decouple(args, report):
    system = args.system
    eps = args.eps if args.eps is not None else float(args.cfg["eps"])
    if isinstance(system, NonlinearSPSystem):
        point = args.cfg.get("linearization_point") or [0.0] * system.dim
        A, B, C, D = jacobians(system, numeric_field(point, "linearization_point"))
    else:
        A, B, C, D = system.fixed_blocks()
    report["eps"] = eps
    report["tolerances"] = {"coupling_residual": coupling_residual_limit(B, C),
                            "block_diagonal_residual": BLOCK_DIAGONAL_TOL}
    try:
        dec = build_decoupling(A, B, C, D, eps)
    except NoConvergence as e:
        report.update(decoupling=None, **_failed("no convergence", e))
        return None
    M = full_system_matrix(A, B, C, D, eps)
    Md = dec.T_inv @ M @ dec.T
    n_r = A.shape[0]
    offdiag = max(np.linalg.norm(Md[:n_r, n_r:]), np.linalg.norm(Md[n_r:, :n_r]))
    r_l, r_h = chang_residuals(A, B, C, D, dec.L, dec.H, eps)
    report["decoupling"] = {
        "L": dec.L.tolist(),
        "H": dec.H.tolist(),
        "T": dec.T.tolist(),
        "T_inv": dec.T_inv.tolist(),
        "slow_block": dec.slow_block.tolist(),
        "fast_block": dec.fast_block.tolist(),
        "det_T_inv": float(np.linalg.det(dec.T_inv)),
        "coupling_residuals": [float(r_l), float(r_h)],
        "block_diagonalization_residual": float(offdiag),
    }
    print(f"L = {dec.L.tolist()}")
    print(f"block-diagonalization residual: {offdiag:.3e}")
    return offdiag <= BLOCK_DIAGONAL_TOL


def cmd_epsilon_star(args, report):
    report["tolerances"] = {"eps_floor": EPS_FLOOR, "bisect_steps": BISECT_STEPS}
    fragment, eps_hat = epsilon_star_stage(args.system, build_certificate(args.cfg),
                                           args.eps_max)
    report.update(fragment)
    if eps_hat is not None:
        print(f"certified eps threshold: {eps_hat:.6g}")
    return eps_hat


def cmd_simulate(args, report):
    ics = args.cfg.get("initial_conditions")
    if not ics:
        raise ConfigError("config has no \"initial_conditions\" list")
    ics = numeric_field(ics, "initial_conditions")
    report["t_final"] = args.t_final
    report["tolerances"] = {"convergence": args.tol}
    fragment, converged = simulation_stage(args.system, ics, args.t_final, args.tol, args.out)
    report.update(fragment)
    for v in fragment.get("trajectories", []):
        state = "converged to " + str(v["matched_equilibrium"]) if v["converged"] \
            else "no convergence"
        print(f"from {v['initial_state']}: {state}")
    return converged


def cmd_monotone_probe(args, report):
    cert = build_certificate(args.cfg)
    fragment, passed = probe_stage(args.system, cert, args.pairs, args.t_final, args.seed)
    report.update(fragment)
    if passed is not None:
        probe = fragment["monotone_probe"]
        print(f"{probe['interior']}/{probe['total_classifications']} interior, "
              f"{probe['boundary_warnings']} boundary warnings, "
              f"{probe['outside']} outside; worst margin {probe['worst_quadform_margin']:.3e}")
    return passed


def spring_config(eps=SPRING_EPS, sigma_r=SPRING_SIGMA_R):
    """Built-in demo configuration (nonlinear spring with fast filter)."""
    cert = nonlinear_spring_certificate()
    return {
        "spec_version": 1,
        "kind": "nonlinear",
        "n_r": 2, "n_f": 1,
        "eps": eps,
        "f": list(SPRING_F),
        "g": list(SPRING_G),
        "omega": {n: [-SPRING_BOX, SPRING_BOX] for n in state_names(2, 1)},
        "certificate": {
            "P_r": cert.P_r.a.tolist(), "P_f": cert.P_f.a.tolist(),
            "lambda_r": cert.lambda_r, "lambda_f": cert.lambda_f,
            "sigma_r": sigma_r, "sigma_f": cert.sigma_f, "p": cert.p,
        },
        "initial_conditions": [list(ic) for ic in SPRING_INITIAL_CONDITIONS],
    }


def cmd_reproduce_paper(args, report):
    system = args.system
    report["eps"] = args.eps
    checks = {}

    def add(name, stage):
        """Merge a stage's fragment into the report, its error entry as
        name_error; return the stage's verdict."""
        fragment, verdict = stage
        for key, value in fragment.items():
            report[f"{name}_error" if key == "error" else key] = value
        return verdict

    try:
        cert = build_certificate(args.cfg)
    except ConfigError as e:
        cert = None
        report["certificate"] = {"error": str(e)}
        checks["certificate_feasible"] = False
    if cert is not None:
        report["certificate"] = certificate_report(system, cert)
        checks["certificate_feasible"] = report["certificate"]["feasible"]
        eps_hat = add("epsilon_star", epsilon_star_stage(system, cert))
        checks["eps_below_threshold"] = eps_hat is not None and args.eps < eps_hat

    converged = add("simulate", simulation_stage(system, args.cfg["initial_conditions"],
                                                 SPRING_T_FINAL, CONVERGENCE_TOL, args.out))
    checks["three_equilibria"] = len(report["equilibria"]) == 3
    checks["all_converged"] = bool(converged)
    if cert is not None:
        passed = add("monotone_probe", probe_stage(system, cert, PROBE_PAIRS,
                                                   SPRING_T_FINAL, PROBE_SEED))
        checks["monotone_probe"] = bool(passed)

    report["tolerances"] = {"convergence": CONVERGENCE_TOL,
                            "probe_classification": CONE_BOUNDARY_BAND,
                            "feasibility_margin": FEASIBILITY_MARGIN}
    report["checks"] = checks
    report["all_checks_passed"] = all(checks.values())
    for name, ok in checks.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return report["all_checks_passed"]


# -- entry point ------------------------------------------------------------

@cache  # parsing leaves a parser as it was, so the first call's serves every call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="spdominance",
        description="Dominance certificates and two-time-scale decoupling "
                    "for singularly perturbed systems")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps so reports are byte-reproducible")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="verify a dominance certificate")
    p.add_argument("config")
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("decouple", help="compute the decoupling transformation")
    p.add_argument("config")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("epsilon-star", help="bisect for the certified eps threshold")
    p.add_argument("config")
    p.add_argument("--eps-max", type=float, default=EPS_MAX)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_epsilon_star)

    p = sub.add_parser("simulate", help="integrate trajectories and check convergence")
    p.add_argument("config")
    p.add_argument("--t-final", type=float, default=SPRING_T_FINAL)
    p.add_argument("--tol", type=float, default=CONVERGENCE_TOL)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("monotone-probe",
                       help="sample trajectory pairs and classify their difference")
    p.add_argument("config")
    p.add_argument("--pairs", type=int, default=PROBE_PAIRS)
    p.add_argument("--t-final", type=float, default=SPRING_T_FINAL)
    p.add_argument("--seed", type=int, default=PROBE_SEED)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_monotone_probe)

    p = sub.add_parser("reproduce-paper",
                       help="run the full built-in worked example end to end")
    p.add_argument("--out", default="out")
    p.add_argument("--eps", type=float, default=SPRING_EPS)
    p.add_argument("--sigma-r", type=float, default=SPRING_SIGMA_R, dest="sigma_r")
    p.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed its usage error or --help
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        # the numeric flags that must be positive and finite, where a command has them
        for name in ("t_final", "tol", "pairs"):
            if not 0 < vars(args).get(name, 1) < float("inf"):
                raise ConfigError(f"--{name.replace('_', '-')} must be positive and "
                                  f"finite, got {vars(args)[name]}")
        if vars(args).get("seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        args.cfg = (load_config(args.config) if "config" in args
                    else spring_config(eps=args.eps, sigma_r=args.sigma_r))
        args.system = build_system(args.cfg)
        report = new_report(args)
        verdict = args.func(args, report)
    except (ConfigError, DimensionMismatch, EvalError, NonpositiveEps,
            NotScalarParameterized, SingularD) as e:
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_USAGE
    write_report(report, os.path.join(args.out, "report.json") if "out" in args
                 else args.report)
    return EXIT_OK if verdict else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
