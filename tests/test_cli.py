import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spdominance import cli
from spdominance.analyze import PROBE_BOUNDARY_ALLOWANCE, PROBE_SAMPLES
from spdominance.certify import FEASIBILITY_MARGIN
from spdominance.cli import main, spring_config
from spdominance.cone import CONE_BOUNDARY_BAND
from spdominance.decouple import BISECT_STEPS, EPS_FLOOR, coupling_residual_limit
from spdominance.errors import NonFinite, SamplingExhausted
from spdominance.integrate import CONVERGENCE_TOL, DP_TOL
from spdominance.systems import jacobians, nonlinear_spring_system


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def spring_cfg_path(tmp_path, **kw):
    return write_cfg(tmp_path, spring_config(**kw))


def linear_cfg(tmp_path, **overrides):
    cfg = {
        "spec_version": 1,
        "kind": "linear",
        "A": [[0.0]],
        "B": [[1.0]],
        "C": [[1.0]],
        "D": [[-1.0]],
        "eps": 0.1,
        "certificate": {"P_r": [[1.0]], "P_f": [[1.0]], "lambda_r": 0.0,
                        "lambda_f": 0.0, "sigma_r": 0.5, "sigma_f": 1.0, "p": 0},
        "initial_conditions": [[1.0, 0.0]],
    }
    cfg.update(overrides)
    return write_cfg(tmp_path, cfg)


def test_missing_config_exits_1(tmp_path):
    assert main(["certify", str(tmp_path / "nope.json")]) == 1


def test_invalid_json_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["certify", str(path)]) == 1


def test_missing_spec_version_exits_1(tmp_path):
    path = write_cfg(tmp_path, {"kind": "linear"})
    assert main(["certify", path]) == 1


def test_bad_kind_exits_1(tmp_path):
    path = write_cfg(tmp_path, {"spec_version": 1, "kind": "hybrid"})
    assert main(["certify", path]) == 1


def test_missing_field_exits_1(tmp_path):
    cfg = spring_config()
    del cfg["f"]
    assert main(["certify", write_cfg(tmp_path, cfg)]) == 1


def test_certify_spring_passes(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code = main(["certify", spring_cfg_path(tmp_path), "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "feasible" in out
    rep = json.loads(report.read_text())
    assert rep["certificate"]["feasible"] is True
    assert rep["certificate"]["fast"]["worst_margin"] == pytest.approx(0.0, abs=1e-12)


def test_certify_infeasible_exits_2(tmp_path):
    code = main(["certify", spring_cfg_path(tmp_path, sigma_r=10.0)])
    assert code == 2


def test_decouple_scalar(tmp_path):
    report = tmp_path / "rep.json"
    path = linear_cfg(tmp_path)
    code = main(["decouple", path, "--report", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    # fixed point of 0.1 L^2 - L - 1 = 0 nearest -1
    expect = (1.0 - np.sqrt(1.4)) / 0.2
    assert rep["decoupling"]["L"][0][0] == pytest.approx(expect, abs=1e-9)
    assert rep["decoupling"]["det_T_inv"] == pytest.approx(1.0, abs=1e-9)


def test_decouple_no_convergence_exits_2(tmp_path, capsys):
    # at eps = 50, 50 L^2 - L + 1 = 0 has no real root: the slow and fast
    # eigenvalues form one complex pair, so there is no slow/fast splitting
    report = tmp_path / "rep.json"
    code = main(["--no-timestamp", "decouple", linear_cfg(tmp_path, C=[[-1.0]]),
                 "--eps", "50", "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().out.startswith("no convergence: ")
    rep = json.loads(report.read_text())
    assert rep["decoupling"] is None
    assert "no slow/fast splitting" in rep["error"]


@pytest.mark.parametrize("command", ["simulate", "decouple", "monotone-probe"])
def test_polytopic_linear_config_exits_1(tmp_path, capsys, command):
    path = linear_cfg(tmp_path, A={"vertices": [[[-1.0]], [[-2.0]]]})
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, path] + extra) == 1
    assert capsys.readouterr().err.startswith("config error: system has polytopic blocks")


def test_epsilon_star_decoupled_linear(tmp_path):
    report = tmp_path / "rep.json"
    path = linear_cfg(tmp_path, A=[[-1.0]], B=[[0.0]], C=[[0.0]])
    code = main(["epsilon-star", path, "--report", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["epsilon_star"] == pytest.approx(1.0)


def test_epsilon_star_unstable_fast_exits_2(tmp_path):
    path = linear_cfg(tmp_path, B=[[0.0]], C=[[0.0]], D=[[1.0]])
    assert main(["epsilon-star", path]) == 2


def test_epsilon_star_spring_exceeds_eps(tmp_path):
    report = tmp_path / "rep.json"
    code = main(["epsilon-star", spring_cfg_path(tmp_path),
                 "--report", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["epsilon_star"] > 0.01


@pytest.mark.parametrize("command", ["certify", "epsilon-star"])
@pytest.mark.parametrize("field, value", [("f", ["x2*x2", "7*tanh(x1) - 5*x1 - 5*z1"]),
                                          ("g", ["x2 - z1 - z1^3"])])
def test_hull_not_scalar_exits_1(tmp_path, capsys, command, field, value):
    cfg = spring_config()
    cfg[field] = value
    assert main([command, write_cfg(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command", ["certify", "epsilon-star", "simulate"])
def test_declared_hull_exits_1(tmp_path, capsys, command):
    # [-1, 1] is narrower than the slope's range over omega, about [-4.93, 2]:
    # the hull is enclosed from f, g and omega, and no declared bound is read
    cfg = {**spring_config(), "hull": {"entry": [1, 0], "bounds": [-1, 1]}}
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, write_cfg(tmp_path, cfg)] + extra) == 1
    assert capsys.readouterr().err == (
        "config error: hull is not read: the Jacobian hull is enclosed from f, g and omega\n")


def test_decouple_zero_eps_exits_1(tmp_path, capsys):
    assert main(["decouple", linear_cfg(tmp_path), "--eps", "0"]) == 1
    assert capsys.readouterr().err.startswith("config error: eps must be positive")


@pytest.mark.parametrize("command", ["certify", "simulate"])
def test_zero_eps_config_exits_1(tmp_path, capsys, command):
    cfg = spring_config()
    cfg["eps"] = 0
    path = write_cfg(tmp_path, cfg)
    assert main([command, path, "--out" if command == "simulate" else "--report",
                 str(tmp_path / "out")]) == 1
    assert "eps must be positive" in capsys.readouterr().err


def test_reproduce_paper_negative_eps_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reproduce-paper", "--eps", "-0.01", "--out", str(out)]) == 1
    assert "eps must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_csv_and_report(tmp_path):
    out = tmp_path / "out"
    path = linear_cfg(tmp_path, A=[[-2.0]])
    code = main(["simulate", path, "--t-final", "20", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert len(rep["trajectories"]) == 1
    csv = (out / "trajectory_00.csv").read_text().splitlines()
    assert csv[0] == "t,x1,z1"
    first = [float(v) for v in csv[1].split(",")]
    assert first == [0.0, 1.0, 0.0]


def test_simulate_not_converged_exits_2(tmp_path, capsys):
    # A - B D^{-1} C = 0: the reduced model does not decay to the origin
    out = tmp_path / "out"
    path = linear_cfg(tmp_path, A=[[-1.0]])
    assert main(["simulate", path, "--t-final", "2.0", "--out", str(out)]) == 2
    assert "no convergence" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert rep["trajectories"][0]["converged"] is False
    assert (out / "trajectory_00.csv").read_text().startswith("t,x1,z1\n")


def test_simulate_wrong_initial_condition_length_exits_1(tmp_path, capsys):
    cfg = spring_config()
    cfg["initial_conditions"] = [[1, 1]]
    assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: initial states of shape (1, 2)")


@pytest.mark.parametrize("command", ["certify", "epsilon-star", "monotone-probe"])
def test_singular_fast_block_exits_1(tmp_path, capsys, command):
    assert main([command, linear_cfg(tmp_path, D=[[0.0]])]) == 1
    assert capsys.readouterr().err.startswith("config error: fast block numerically singular")


@pytest.mark.parametrize("command", ["simulate", "monotone-probe", "reproduce-paper"])
def test_too_stiff_for_explicit_pair_exits_1(tmp_path, capsys, command):
    # eps/20 = 5e-13 is below dopri_run's step floor: no state escaped
    out = str(tmp_path / "out")
    argv = (["reproduce-paper", "--eps", "1e-11", "--out", out]
            if command == "reproduce-paper" else
            [command, spring_cfg_path(tmp_path, eps=1e-11),
             "--out" if command == "simulate" else "--report", out])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: eps = 1e-11 is too stiff")


def test_simulate_diverging_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {"spec_version": 1, "kind": "nonlinear", "n_r": 1, "n_f": 1, "eps": 0.1,
           "f": ["x1^3"], "g": ["x1 - z1"], "initial_conditions": [[2, 0]]}
    code = main(["--no-timestamp", "simulate", write_cfg(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out.startswith("diverged: state escaped at t=")
    rep = json.loads((out / "report.json").read_text())
    assert rep["command"] == "simulate"
    assert "state escaped" in rep["error"]
    assert "trajectories" not in rep


def test_probe_diverging_exits_2(tmp_path, capsys):
    cfg = spring_config()
    cfg["f"] = ["x2", "x1^3 - 5*z1"]
    rep = tmp_path / "probe.json"
    code = main(["--no-timestamp", "monotone-probe", write_cfg(tmp_path, cfg),
                 "--pairs", "2", "--report", str(rep)])
    assert code == 2
    assert capsys.readouterr().out.count("\n") == 1
    report = json.loads(rep.read_text())
    assert "state escaped" in report["error"]
    assert "monotone_probe" not in report


def test_probe_sampling_exhausted_exits_2(tmp_path, capsys):
    # the cone of P_r = diag(-1e-7, 1) is too thin to sample in the box
    cert = {"P_r": [[-1e-7, 0.0], [0.0, 1.0]], "P_f": [[1.0]], "lambda_r": 0.0,
            "lambda_f": 0.0, "sigma_r": 0.5, "sigma_f": 1.0, "p": 1}
    path = linear_cfg(tmp_path, A=[[-1.0, 0.0], [0.0, -2.0]], B=[[0.0], [0.0]],
                      C=[[0.0, 0.0]], certificate=cert)
    rep = tmp_path / "probe.json"
    code = main(["--no-timestamp", "monotone-probe", path, "--pairs", "5",
                 "--report", str(rep)])
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("sampling exhausted: ") and out.count("\n") == 1
    report = json.loads(rep.read_text())
    assert "too thin" in report["error"]
    assert "monotone_probe" not in report


@pytest.mark.parametrize("error", [NonFinite("state escaped at t=1"),
                                   SamplingExhausted("the cone is too thin")])
def test_reproduce_paper_reports_probe_failure(tmp_path, capsys, monkeypatch, error):
    def failing_probe(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "monotone_probe", failing_probe)
    out = tmp_path / "out"
    assert main(["--no-timestamp", "reproduce-paper", "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(f": {error}")
    assert lines[-1] == "monotone_probe: FAIL"
    rep = json.loads((out / "report.json").read_text())
    assert rep["monotone_probe_error"] == str(error)
    assert rep["checks"]["monotone_probe"] is False
    assert len(rep["csv_files"]) == 5


def test_probe_report_reproducible(tmp_path):
    path = spring_cfg_path(tmp_path)
    reports = []
    for name in ("a.json", "b.json"):
        rep = tmp_path / name
        main(["--no-timestamp", "monotone-probe", path, "--pairs", "5",
              "--t-final", "1.0", "--report", str(rep)])
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]


def test_probe_seed_changes_samples(tmp_path):
    path = spring_cfg_path(tmp_path)
    margins = []
    for seed in ("42", "43"):
        rep = tmp_path / f"s{seed}.json"
        main(["--no-timestamp", "monotone-probe", path, "--pairs", "5",
              "--t-final", "1.0", "--seed", seed, "--report", str(rep)])
        margins.append(json.loads(rep.read_text())["monotone_probe"]
                       ["worst_quadform_margin"])
    assert margins[0] != margins[1]


def test_probe_report_names_cone(tmp_path):
    path = spring_cfg_path(tmp_path)
    rep = tmp_path / "probe.json"
    main(["--no-timestamp", "monotone-probe", path, "--pairs", "2",
          "--t-final", "0.1", "--report", str(rep)])
    cone = json.loads(rep.read_text())["monotone_probe"]["cone"]
    assert cone["L0"] == [[0.0, -1.0]]
    assert cone["rank_k"] == 1
    assert cone["used_for"] == "sampling and classification"


def test_probe_varying_fast_block_exits_1(tmp_path):
    cfg = spring_config()
    cfg["g"] = ["x2 - z1 - z1^3"]
    assert main(["monotone-probe", write_cfg(tmp_path, cfg), "--pairs", "2",
                 "--t-final", "0.1"]) == 1


def test_reproduce_paper_report_structure(tmp_path):
    out = tmp_path / "out"
    main(["--no-timestamp", "reproduce-paper", "--out", str(out)])
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"]["certificate_feasible"] is True
    assert rep["checks"]["eps_below_threshold"] is True
    assert rep["checks"]["three_equilibria"] is True
    assert len(rep["equilibria"]) == 3
    assert len(rep["csv_files"]) == 5
    assert rep["epsilon_star"] > 0.01


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", [("epsilon-star", "--eps-max"), ("decouple", "--eps")])
def test_nonfinite_eps_exits_1(tmp_path, capsys, command, flag, value):
    assert main([command, spring_cfg_path(tmp_path), flag, value]) == 1
    assert capsys.readouterr().err == \
        f"config error: eps must be positive and finite, got {value}\n"


@pytest.mark.parametrize("command", ["certify", "epsilon-star", "simulate"])
def test_singular_expression_exits_1(tmp_path, capsys, command):
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    # numpy's x/0, 0/0 and 0^-1, and Python's 1.0/0.0
    for f in ["1/x1 - z1", "x1/x1", "x1^-1", "1/0 + x1", "tanh(1/x1)"]:
        cfg = {"spec_version": 1, "kind": "nonlinear", "n_r": 1, "n_f": 1, "eps": 0.1,
               "f": [f], "g": ["x1 - z1"], "initial_conditions": [[1, 0]]}
        assert main([command, write_cfg(tmp_path, cfg)] + extra) == 1, f
        assert capsys.readouterr().err == "config error: division by zero\n", f


def test_newton_meets_zero_divisor_exits_1(tmp_path, capsys):
    # the equilibrium grid seeds x1 = 1, where the Jacobian divides by zero
    cfg = {"spec_version": 1, "kind": "nonlinear", "n_r": 1, "n_f": 1, "eps": 0.1,
           "f": ["x1/(x1 - 1) - z1"], "g": ["x1 - z1"],
           "omega": {"x1": [-1, 1], "z1": [-1, 1]}, "initial_conditions": [[0.5, 0]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "config error: division by zero\n"


@pytest.mark.parametrize("command, field, value, message", [
    ("decouple", "linearization_point", ["a", 0, 0], "linearization_point must be numbers"),
    ("simulate", "initial_conditions", [["a", 0, 0]], "initial_conditions must be numbers"),
    ("certify", "hull", [1, 2], "hull is not read"),
    ("certify", "certificate", [1, 2], "config needs a \"certificate\" object"),
    ("certify", "certificate", {**spring_config()["certificate"], "lambda_r": [2]},
     "invalid certificate: "),
    ("certify", None, [1, 2], "config must be an object"),
    ("epsilon-star", "omgea", {"x1": [-3, 3], "x2": [-3, 3], "z1": [-3, 3]},
     "unknown config keys: omgea\n"),
], ids=["linearization-point", "initial-conditions", "hull-list", "certificate-list",
        "certificate-rate-list", "config-list", "misspelled-omega"])
def test_malformed_numeric_field_exits_1(tmp_path, capsys, command, field, value, message):
    # field None: value is the whole config
    cfg = value if field is None else {**spring_config(), field: value}
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, write_cfg(tmp_path, cfg)] + extra) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


SPRING_OMEGA = {"x1": [-3, 3], "x2": [-3, 3], "z1": [-3, 3]}


def test_overflowing_enclosure_exits_1_without_a_warning(tmp_path, capsys):
    # x1^3 over [-1e200, 1e200] overflows: one config error line, and no numpy
    # overflow warning before it (a RuntimeWarning fails this suite)
    cfg = spring_config()
    cfg["f"] = ["x2", "-x1^3 - x2 - z1"]
    cfg["omega"] = {**SPRING_OMEGA, "x1": [-1e200, 1e200]}
    assert main(["certify", write_cfg(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == "config error: enclosure overflows\n"


@pytest.mark.parametrize("kind, command, omega", [
    ("nonlinear", "certify", {"x1": [-3, 3], "x2": [-3, 3]}),
    ("linear", "monotone-probe", {"x1": [-1, 1]}),
    ("nonlinear", "certify", {**SPRING_OMEGA, "z1": [-1]}),
    ("nonlinear", "certify", {**SPRING_OMEGA, "q9": [-1, 1]}),
], ids=["nonlinear-missing", "linear-missing", "one-bound", "unknown-name"])
def test_bad_omega_exits_1(tmp_path, capsys, kind, command, omega):
    path = (linear_cfg(tmp_path, omega=omega) if kind == "linear"
            else write_cfg(tmp_path, {**spring_config(), "omega": omega}))
    assert main([command, path]) == 1
    assert capsys.readouterr().err.startswith("config error: omega ")


@pytest.mark.parametrize("command, flag, value", [("simulate", "--t-final", "0"),
                                                  ("monotone-probe", "--t-final", "0"),
                                                  ("simulate", "--tol", "0"),
                                                  ("monotone-probe", "--pairs", "0"),
                                                  ("simulate", "--t-final", "inf"),
                                                  ("monotone-probe", "--t-final", "inf")])
def test_nonpositive_flag_exits_1(tmp_path, capsys, command, flag, value):
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, spring_cfg_path(tmp_path), flag, value] + extra) == 1
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be positive and finite")


def test_negative_seed_exits_1(tmp_path, capsys):
    assert main(["monotone-probe", spring_cfg_path(tmp_path), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == \
        "config error: --seed must be a non-negative integer, got -1\n"


SPRING_B, SPRING_C = jacobians(nonlinear_spring_system(), np.zeros(3))[1:3]


@pytest.mark.parametrize("command, tolerances", [
    ("certify", {"feasibility_margin": FEASIBILITY_MARGIN}),
    ("decouple", {"coupling_residual": coupling_residual_limit(SPRING_B, SPRING_C),
                  "block_diagonal_residual": cli.BLOCK_DIAGONAL_TOL}),
    ("epsilon-star", {"eps_floor": EPS_FLOOR, "bisect_steps": BISECT_STEPS}),
    ("simulate", {"convergence": CONVERGENCE_TOL}),
    ("reproduce-paper", {"convergence": CONVERGENCE_TOL,
                         "probe_classification": CONE_BOUNDARY_BAND,
                         "feasibility_margin": FEASIBILITY_MARGIN}),
])
def test_report_tolerances_are_the_checks_constants(tmp_path, command, tolerances):
    out = tmp_path / "out"
    if command == "reproduce-paper":
        argv, report = ["--out", str(out)], out / "report.json"
    elif command == "simulate":
        argv, report = [spring_cfg_path(tmp_path), "--out", str(out)], out / "report.json"
    else:
        report = tmp_path / "rep.json"
        argv = [spring_cfg_path(tmp_path), "--report", str(report)]
    main([command] + argv)
    assert json.loads(report.read_text())["tolerances"] == tolerances


def test_probe_report_names_its_tolerances(tmp_path):
    rep = tmp_path / "probe.json"
    main(["monotone-probe", spring_cfg_path(tmp_path), "--pairs", "2",
          "--t-final", "0.1", "--report", str(rep)])
    probe = json.loads(rep.read_text())["monotone_probe"]
    assert probe["classification_tol"] == CONE_BOUNDARY_BAND
    assert probe["boundary_allowance"] == PROBE_BOUNDARY_ALLOWANCE
    assert probe["samples_per_pair"] == PROBE_SAMPLES
    assert probe["integrator"]["tol"] == DP_TOL


REPORT_HEAD = ["tool", "version", "command"]


@pytest.mark.parametrize("argv, keys", [
    (["certify", "{spring}", "--report", "{rep}"], ["tolerances", "certificate"]),
    (["decouple", "{spring}", "--report", "{rep}"], ["eps", "tolerances", "decoupling"]),
    (["decouple", "{spring}", "--eps", "0.5", "--report", "{rep}"],
     ["eps", "tolerances", "decoupling", "error"]),
    (["epsilon-star", "{spring}", "--report", "{rep}"],
     ["tolerances", "epsilon_star", "monotone_violations"]),
    (["monotone-probe", "{spring}", "--pairs", "2", "--t-final", "0.1", "--report", "{rep}"],
     ["monotone_probe"]),
    (["simulate", "{spring}", "--t-final", "0.1", "--out", "{out}"],
     ["t_final", "tolerances", "equilibria", "trajectories", "csv_files"]),
    (["reproduce-paper", "--out", "{out}"],
     ["eps", "certificate", "epsilon_star", "monotone_violations", "equilibria",
      "trajectories", "csv_files", "monotone_probe", "tolerances", "checks",
      "all_checks_passed"]),
])
def test_report_key_order(tmp_path, argv, keys):
    # the key order each subcommand's report keeps, whatever runs it
    paths = {"spring": spring_cfg_path(tmp_path), "rep": str(tmp_path / "rep.json"),
             "out": str(tmp_path / "out")}
    main(["--no-timestamp"] + [a.format(**paths) for a in argv])
    report = tmp_path / ("out/report.json" if "{out}" in argv else "rep.json")
    assert list(json.loads(report.read_text())) == REPORT_HEAD + keys


@pytest.mark.parametrize("argv", [["certify"], ["bogus"],
                                  ["monotone-probe", "x", "--pairs", "abc"]])
def test_usage_error_exits_1(capsys, argv):
    assert main(argv) == 1
    assert "error: " in capsys.readouterr().err  # argparse's own message


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: spdominance")


def test_parser_is_built_once(tmp_path, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    path = linear_cfg(tmp_path)
    assert main(["decouple", path]) == 0  # the first call in the process builds it
    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
    assert [main(["decouple", path]), main(["certify", path])] == [0, 2]


@pytest.mark.parametrize("argv, code", [(["decouple", "config.json"], 0),
                                        (["certify"], 1),
                                        (["certify", "config.json"], 2)])
def test_exit_code_reaches_the_shell(tmp_path, argv, code):
    # python -m spdominance.cli, the path the console script takes through main
    linear_cfg(tmp_path)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "spdominance.cli"] + argv, cwd=tmp_path,
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == code
