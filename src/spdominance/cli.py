"""Command-line surface.

Subcommands: certify, decouple, epsilon-star, simulate, monotone-probe,
reproduce-paper. `main` runs each one: it loads the JSON config (reproduce-paper
builds the spring's), builds the system, starts the report, writes it with a
fixed key order to --report or <out>/report.json, and picks the exit code.

Exit codes: 0 = all requested checks passed, 1 = usage or configuration
error, or an output that cannot be written (no report is written), 2 = a
mathematical check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys as _sys
from functools import cache

import numpy as np

from . import __version__
from .analyze import PROBE_PAIRS, PROBE_SEED, convergence_report, monotone_probe
from .certify import FEASIBILITY_MARGIN, SPDominanceCertificate, vertex_stack
from .cone import CONE_BOUNDARY_BAND
from .decouple import (BISECT_STEPS, EPS_FLOOR, EPS_MAX, InfeasibleAtFloor,
                       build_decoupling, certify_sp, chang_residuals,
                       coupling_residual_limit, epsilon_star, full_system_matrix)
from .errors import (ConfigError, DimensionMismatch, EvalError, NoConvergence, NonFinite,
                     NonpositiveEps, NotScalarParameterized, SamplingExhausted, SingularD)
from .integrate import (CONVERGENCE_TOL, Trajectory, find_equilibria, integrate,
                        write_trajectory_csv)
from .systems import (SPRING_EPS, SPRING_T_FINAL, LinearSPSystem, NonlinearSPSystem,
                      jacobian_hull, jacobians, spring_config)

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
    if not isinstance(cfg, dict) or type(cfg.get("spec_version")) is not int \
            or cfg["spec_version"] != 1:
        raise ConfigError("config must be an object declaring \"spec_version\": 1")
    if cfg.get("kind") not in ("linear", "nonlinear"):
        raise ConfigError("config \"kind\" must be \"linear\" or \"nonlinear\"")
    if "hull" in cfg:
        raise ConfigError("hull is not read: the Jacobian hull is enclosed from f, g and omega")
    if cfg.keys() - CONFIG_KEYS:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(cfg.keys() - CONFIG_KEYS))}")
    return cfg


def _matrix_or_polytope(value, what):
    if not isinstance(value, dict):
        return vertex_stack([numbers(value, what)])
    if "vertices" not in value:
        raise ConfigError(f"{what}: polytope object needs a \"vertices\" list")
    return vertex_stack([numbers(v, what) for v in value["vertices"]])


def is_number(v):
    """Whether v is a JSON number a double holds: no bool, nor an int beyond it."""
    return type(v) is float or type(v) is int and abs(v) <= _sys.float_info.max


def numbers(value, field):
    """A config value, a number or nested lists, as given once each entry is a
    JSON number (is_number), not a string, null or a ragged row; ConfigError
    naming the field otherwise."""
    if not all(map(is_number, np.asarray(value, dtype=object).flat)):
        raise ConfigError(f"{field} must be numbers, got {value!r}")
    return value


def numeric_field(value, field):
    """A config value as a finite float array; ConfigError naming the field otherwise."""
    array = np.asarray(numbers(value, field), dtype=float)
    if not np.isfinite(array).all():
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return array


def integer_field(value, field):
    """A config value that must be a JSON integer, not a bool; ConfigError otherwise."""
    if type(value) is not int:
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def number_field(value, field):
    """A config value that must be a JSON number (is_number), as a float;
    ConfigError otherwise."""
    if not is_number(value):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    return float(value)


def build_system(cfg):
    try:
        if cfg["kind"] == "nonlinear":
            return NonlinearSPSystem(n_r=integer_field(cfg["n_r"], "n_r"),
                                     n_f=integer_field(cfg["n_f"], "n_f"),
                                     f=cfg["f"], g=cfg["g"],
                                     eps=number_field(cfg["eps"], "eps"),
                                     omega=cfg.get("omega"))
        return LinearSPSystem(A=_matrix_or_polytope(cfg["A"], "A"),
                              B=numbers(cfg["B"], "B"), C=numbers(cfg["C"], "C"),
                              D=_matrix_or_polytope(cfg["D"], "D"),
                              eps=number_field(cfg["eps"], "eps"), omega=cfg.get("omega"))
    except KeyError as e:
        raise ConfigError(f"config missing required field {e}")
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e))


def build_certificate(cfg):
    block = cfg.get("certificate")
    if not isinstance(block, dict):
        raise ConfigError("config needs a \"certificate\" object")
    try:
        rates = {k: number_field(block[k], k)
                 for k in ("lambda_r", "lambda_f", "sigma_r", "sigma_f")}
        return SPDominanceCertificate(P_r=numbers(block["P_r"], "P_r"),
                                      P_f=numbers(block["P_f"], "P_f"),
                                      p=integer_field(block["p"], "p"), **rates)
    except KeyError as e:
        raise ConfigError(f"certificate block missing field {e}")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid certificate: {e}")


# -- reports ----------------------------------------------------------------

def new_report(args):
    rep = {"tool": "spdominance", "version": __version__, "command": args.command}
    if not args.no_timestamp:
        rep["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return rep


def certificate_report(system, cert):
    """Slow and fast certificate verdicts over the system's Jacobian hull."""
    slow_res, fast_res = certify_sp(*jacobian_hull(system), cert)
    return {
        "slow": dataclasses.asdict(slow_res),
        "fast": dataclasses.asdict(fast_res),
        "feasible": bool(slow_res.feasible and fast_res.feasible),
    }


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
    try:
        eps_hat, violations = epsilon_star(*jacobian_hull(system), cert, eps_max=eps_max)
    except InfeasibleAtFloor as e:
        return {"epsilon_star": None, **_failed("infeasible", e)}, None
    return {"epsilon_star": eps_hat, "monotone_violations": violations}, eps_hat


def simulation_stage(system, ics, t_final, out, run=None):
    """The equilibria, then the trajectories from ics to t_final with the
    integrator's stats, each matched to an equilibrium and written into out
    as trajectory_NN.csv; the verdict is whether every trajectory converged.
    run, the (times, states, stats) of a run from ics that already reached
    t_final, is used as given; without it integrate runs them, keeping every
    accepted step."""
    equilibria = (find_equilibria(system) if isinstance(system, NonlinearSPSystem)
                  else [np.zeros(system.dim)])
    fragment = {"equilibria": [[float(v) for v in q] for q in equilibria]}
    try:
        times, states, fragment["integrator"] = (integrate(system, ics, (0.0, t_final))
                                                 if run is None else run)
    except NonFinite as e:
        return {**fragment, **_failed("diverged", e)}, None
    trajectories = [Trajectory(times, states[:, i]) for i in range(states.shape[1])]
    verdicts = convergence_report(trajectories, equilibria)
    fragment["trajectories"] = verdicts
    os.makedirs(out, exist_ok=True)
    fragment["csv_files"] = [os.path.join(out, f"trajectory_{i:02d}.csv")
                             for i in range(len(trajectories))]
    for traj, path in zip(trajectories, fragment["csv_files"]):
        write_trajectory_csv(traj, path, n_r=system.n_r)
    return fragment, all(v["converged"] for v in verdicts)


def probe_stage(system, cert, n_pairs, t_final, seed, riders=None):
    """The seeded monotonicity probe, with riders in its batch as
    monotone_probe takes them; the verdict is whether it passed."""
    try:
        probe = monotone_probe(system, cert, n_pairs=n_pairs, t_final=t_final, seed=seed,
                               riders=riders)
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
    eps = args.eps if args.eps is not None else system.eps
    given = args.cfg.get("linearization_point")  # the origin when absent or null
    point = numeric_field([0] * system.dim if given is None else given, "linearization_point")
    if point.shape != (system.dim,):
        raise ConfigError(f"linearization_point must be {system.dim} numbers, got {given!r}")
    A, B, C, D = jacobians(system, point)
    report["eps"] = eps
    report["tolerances"] = {"coupling_residual": coupling_residual_limit(B, C),
                            "block_diagonal_residual": BLOCK_DIAGONAL_TOL}
    try:
        dec = build_decoupling(A, B, C, D, eps)
    except NoConvergence as e:
        report.update(decoupling=None, **_failed("no convergence", e))
        return None
    Md = dec.T_inv @ full_system_matrix(A, B, C, D, eps) @ dec.T
    n_r = A.shape[0]
    offdiag = max(np.linalg.norm(Md[:n_r, n_r:]), np.linalg.norm(Md[n_r:, :n_r]))
    r_l, r_h = chang_residuals(A, B, C, D, dec.L, dec.H, eps)
    report["decoupling"] = {  # every matrix of dec, L to fast_block, then its checks
        **{key: value.tolist() for key, value in vars(dec).items()},
        "det_T_inv": float(np.linalg.det(dec.T_inv)),
        "coupling_residuals": [float(r_l), float(r_h)],
        "block_diagonalization_residual": float(offdiag),
    }
    print(f"L = {dec.L.tolist()}")
    print(f"block-diagonalization residual: {offdiag:.3e}")
    return offdiag <= BLOCK_DIAGONAL_TOL


def cmd_epsilon_star(args, report):
    report["tolerances"] = {"eps_floor": EPS_FLOOR, "bisect_steps": BISECT_STEPS,
                            "checked_at": "vertex_pairs"}
    fragment, eps_hat = epsilon_star_stage(args.system, build_certificate(args.cfg),
                                           args.eps_max)
    report.update(fragment)
    if eps_hat is not None:
        print(f"eps threshold, checked at every (A, D) vertex pair: {eps_hat:.6g}")
    return eps_hat


def cmd_simulate(args, report):
    ics = args.cfg.get("initial_conditions")
    if not ics:
        raise ConfigError("config has no \"initial_conditions\" list")
    ics = numeric_field(ics, "initial_conditions")
    report["t_final"] = args.t_final
    report["tolerances"] = {"convergence": CONVERGENCE_TOL}
    fragment, converged = simulation_stage(args.system, ics, args.t_final, args.out)
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


def cmd_reproduce_paper(args, report):
    system, cert = args.system, build_certificate(args.cfg)
    report["eps"] = args.eps
    checks = {}

    def add(name, stage):
        """Merge a stage's fragment into the report, its error entry as
        name_error; return the stage's verdict."""
        fragment, verdict = stage
        for key, value in fragment.items():
            report[f"{name}_error" if key == "error" else key] = value
        return verdict

    report["certificate"] = certificate_report(system, cert)
    checks["certificate_feasible"] = report["certificate"]["feasible"]
    eps_hat = add("epsilon_star", epsilon_star_stage(system, cert))
    checks["eps_below_threshold"] = eps_hat is not None and args.eps < eps_hat

    # the reference trajectories ride in the probe's batch, so one integration
    # serves both; after a failed probe the simulation integrates them itself
    ics = args.cfg["initial_conditions"]
    probe = probe_stage(system, cert, PROBE_PAIRS, SPRING_T_FINAL, PROBE_SEED, riders=ics)
    run = probe[0].get("monotone_probe", {}).pop("riders", None)
    converged = add("simulate", simulation_stage(system, ics, SPRING_T_FINAL, args.out, run))
    checks["three_equilibria"] = len(report["equilibria"]) == 3
    checks["all_converged"] = bool(converged)
    checks["monotone_probe"] = bool(add("monotone_probe", probe))

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

    p = sub.add_parser("epsilon-star", help="bisect for the eps threshold of the block "
                                            "conditions, checked at every (A, D) vertex pair")
    p.add_argument("config")
    p.add_argument("--eps-max", type=float, default=EPS_MAX)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_epsilon_star)

    p = sub.add_parser("simulate", help="integrate trajectories and check convergence")
    p.add_argument("config")
    p.add_argument("--t-final", type=float, default=SPRING_T_FINAL)
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
    p.set_defaults(func=cmd_reproduce_paper)

    return parser


@np.errstate(over="raise", divide="raise", invalid="raise")  # a config's overflow exits 1
def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed its usage error or --help
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        # the numeric flags that must be positive and finite, where a command has them
        for name in ("t_final", "pairs"):
            if not 0 < vars(args).get(name, 1) < float("inf"):
                raise ConfigError(f"--{name.replace('_', '-')} must be positive and "
                                  f"finite, got {vars(args)[name]}")
        if vars(args).get("seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        args.cfg = (load_config(args.config) if "config" in args
                    else spring_config(eps=args.eps))
        args.system = build_system(args.cfg)
        report = new_report(args)
        verdict = args.func(args, report)
        path = os.path.join(args.out, "report.json") if "out" in args else args.report
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(json.dumps(report, indent=2) + "\n")
    except (ConfigError, DimensionMismatch, EvalError, FloatingPointError, NonpositiveEps,
            NotScalarParameterized, SingularD) as e:
        print(f"config error: {e}", file=_sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # an output path that cannot be written
        print(f"cannot write output: {e}", file=_sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if verdict else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
