import argparse
import copy
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdominance import cli
from spdominance.analyze import PROBE_BOUNDARY_ALLOWANCE, PROBE_SAMPLES, convergence_report
from spdominance.certify import FEASIBILITY_MARGIN
from spdominance.cli import main, spring_config
from spdominance.cone import CONE_BOUNDARY_BAND
from spdominance.decouple import BISECT_STEPS, EPS_FLOOR, coupling_residual_limit
from spdominance.errors import NonFinite, SamplingExhausted
from spdominance.integrate import CONVERGENCE_TOL, DP_TOL, Trajectory, integrate
from spdominance.systems import SPRING_INITIAL_CONDITIONS, jacobians, nonlinear_spring_system


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def spring_cfg_path(tmp_path, **kw):
    return write_cfg(tmp_path, spring_config(**kw))


LINEAR_CONFIG = {
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


BEYOND_DOUBLE = int("9" * 400)  # a JSON integer that no float holds


def linear_cfg(tmp_path, **overrides):
    return write_cfg(tmp_path, {**LINEAR_CONFIG, **overrides})


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
    cfg = spring_config()
    cfg["certificate"]["sigma_r"] = 10.0
    assert main(["certify", write_cfg(tmp_path, cfg)]) == 2


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
@pytest.mark.parametrize("field, value", [("f", ["x2", "7*tanh(x1) - 5*x1 - 5*z1 - z1^3"]),
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


@pytest.mark.parametrize("command, overrides", [
    ("decouple", {"eps": 1e-320}),
    ("certify", {"certificate": {**LINEAR_CONFIG["certificate"], "P_f": [[1e308]]}})],
    ids=["eps-tiny", "P_f-huge"])
def test_floating_point_overflow_exits_1(tmp_path, capsys, command, overrides):
    # D / eps and the fast block's LMI residual overflow a double: one line, exit 1
    assert main([command, linear_cfg(tmp_path, **overrides)]) == 1
    assert capsys.readouterr().err.startswith("config error: overflow encountered in ")


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


def test_simulate_report_counts_its_integrator(tmp_path):
    reports = []
    for _ in range(2):
        main(["--no-timestamp", "simulate", spring_cfg_path(tmp_path), "--t-final", "0.5",
              "--out", str(tmp_path / "out")])
        reports.append((tmp_path / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    run = json.loads(reports[0])["integrator"]
    assert list(run) == ["method", "tol", "steps", "rejected", "rhs_evals"]
    assert (run["method"], run["tol"]) == ("dop853", DP_TOL)
    assert run["steps"] > 0
    assert run["rhs_evals"] == 1 + 12 * run["steps"] + 11 * run["rejected"]


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


@pytest.mark.parametrize("command", ["certify", "monotone-probe", "epsilon-star", "decouple"])
def test_fast_block_inverse_overflow_exits_1(tmp_path, capsys, command):
    # D = 1e-320 has condition number 1, but D^-1 overflows to inf: certify used
    # to exit 2 on a NaN margin, the probe to raise on an infinite cone, and
    # epsilon-star and decouple to exit 2 as infeasible or without a modulus gap
    assert main([command, linear_cfg(tmp_path, D=[[1e-320]])]) == 1
    assert capsys.readouterr().err == "config error: fast block's inverse overflows\n"


def test_probe_cone_rank_is_the_certificates(tmp_path, capsys):
    # beside P_f = 2^31 the cone matrix's slow eigenvalues used to count as zero
    # in a second inertia check, which raised SingularP; the cone now takes the
    # certificate's rank, and the sampler finds the thin cone exhausted
    cfg = spring_config()
    cfg["certificate"]["P_f"] = [[2 ** 31]]
    path = write_cfg(tmp_path, cfg)
    assert main(["certify", path]) == 0
    assert main(["monotone-probe", path]) == 2
    assert capsys.readouterr().out.splitlines()[-1].startswith("sampling exhausted: ")


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
    # without the probe's batch the trajectories are integrated as simulate does
    assert len(rep["csv_files"]) == 5 and len(rep["trajectories"]) == 5
    sim = tmp_path / "sim"
    main(["--no-timestamp", "simulate", spring_cfg_path(tmp_path), "--out", str(sim)])
    alone = json.loads((sim / "report.json").read_text())
    assert rep["integrator"] == alone["integrator"]
    assert rep["trajectories"] == alone["trajectories"]


def test_reproduce_paper_integrates_once(tmp_path, monkeypatch):
    batches = []
    integrate_module = importlib.import_module("spdominance.integrate")
    dopri_run = integrate_module.dopri_run

    def counted(*args, **kwargs):
        batches.append(args[1].shape)
        return dopri_run(*args, **kwargs)

    monkeypatch.setattr(integrate_module, "dopri_run", counted)
    out = tmp_path / "out"
    assert main(["--no-timestamp", "reproduce-paper", "--out", str(out)]) == 2
    assert batches == [(205, 3)]  # the probe's 200 pair states, then the 5 riders
    rep = json.loads((out / "report.json").read_text())
    assert rep["integrator"] == rep["monotone_probe"]["integrator"]
    assert [rep["integrator"][k] for k in ("steps", "rejected", "rhs_evals")] == [604, 0, 7249]
    # the riders leave the probe's entry as monotone-probe reports it
    probe = tmp_path / "probe.json"
    main(["--no-timestamp", "monotone-probe", spring_cfg_path(tmp_path), "--pairs", "100",
          "--seed", "42", "--report", str(probe)])
    assert rep["monotone_probe"] == json.loads(probe.read_text())["monotone_probe"]


def test_reproduce_paper_csvs_on_probe_grid(tmp_path):
    out = tmp_path / "out"
    main(["--no-timestamp", "reproduce-paper", "--out", str(out)])
    rep = json.loads((out / "report.json").read_text())
    ics = np.array(SPRING_INITIAL_CONDITIONS)
    times, states, _ = integrate(cli.build_system(spring_config()), ics, (0.0, 9.0))
    alone = convergence_report([Trajectory(times, states[:, i]) for i in range(len(ics))],
                               rep["equilibria"])
    grid = [k * 9.0 / PROBE_SAMPLES for k in range(PROBE_SAMPLES + 1)]
    assert grid[-1] == 9.0
    for i, path in enumerate(rep["csv_files"]):
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (PROBE_SAMPLES + 1, 4)
        assert rows[:, 0].tolist() == grid
        assert rows[0, 1:].tolist() == ics[i].tolist()
        assert np.abs(rows[-1, 1:] - states[-1, i]).max() <= 1e-9
    for ours, theirs in zip(rep["trajectories"], alone):
        assert ours["converged"] == theirs["converged"]
        assert ours["matched_equilibrium"] == theirs["matched_equilibrium"]


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
    for run in (rep["integrator"], rep["monotone_probe"]["integrator"]):
        assert (run["method"], run["tol"]) == ("dop853", DP_TOL)
        assert run["rhs_evals"] == 1 + 12 * run["steps"] + 11 * run["rejected"]


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


NESTED_G = {  # the spring's g nested past what compiles, each in its own way
    "sum-250": " + ".join(["x2"] * 249) + " - 250*z1",
    "sum-1200": " + ".join(["x2"] * 1199) + " - 1200*z1",
    "minus-600": "-" * 600 + "(x2 - z1)",
    "parentheses-600": "(" * 600 + "x2 - z1" + ")" * 600,
}


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize("shape", NESTED_G)
def test_deeply_nested_expression_exits_1(tmp_path, capsys, command, shape):
    cfg = {**spring_config(), "g": [NESTED_G[shape]]}
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, write_cfg(tmp_path, cfg)] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: expression nested ") and err.count("\n") == 1


def test_sum_at_max_nesting_certifies_and_simulate_refuses_one_level_more(tmp_path, capsys):
    # 201 terms nest MAX_NESTING levels: certify runs as before; simulate's
    # g/eps adds a level its kernel cannot compile, a config error
    cfg = {**spring_config(), "g": [" + ".join(["x2"] * 200) + " - 201*z1"]}
    path = write_cfg(tmp_path, cfg)
    assert main(["certify", path]) == 0
    capsys.readouterr()
    assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: expression nested too deeply to compile\n"


@pytest.mark.parametrize("overrides, n_r, n_f, simulated", [
    ({"n_f": 0, "f": ["x2", "7*tanh(x1) - 5*x1"], "g": [], "initial_conditions": [[1, 1]],
      "omega": {"x1": [-3, 3], "x2": [-3, 3]}}, 2, 0, 2),
    ({"n_r": 0, "f": [], "g": ["-z1"], "initial_conditions": [[1]], "omega": {"z1": [-3, 3]}},
     0, 1, 0),
], ids=["no-fast-state", "no-slow-state"])
def test_decouple_without_slow_or_fast_state_exits_1(tmp_path, capsys, overrides, n_r, n_f,
                                                     simulated):
    path = write_cfg(tmp_path, {**spring_config(), **overrides})
    assert main(["decouple", path]) == 1
    assert capsys.readouterr().err == (f"config error: n_r = {n_r}, n_f = {n_f}: the blocks "
                                       "need a slow and a fast state\n")
    # the system still integrates: the undamped slow pair does not converge
    assert main(["simulate", path, "--out", str(tmp_path / "out")]) == simulated


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
    ("decouple", "linearization_point", [float("nan"), 0, 0],
     "linearization_point must be finite, got [nan, 0, 0]\n"),
    ("decouple", "linearization_point", [0, float("-inf"), 0],
     "linearization_point must be finite, got [0, -inf, 0]\n"),
    ("simulate", "initial_conditions", [[1, 1, 1], [float("nan"), 0, 0]],
     "initial_conditions must be finite, got [[1, 1, 1], [nan, 0, 0]]\n"),
    ("simulate", "initial_conditions", [[float("inf"), 0, 0]],
     "initial_conditions must be finite, got [[inf, 0, 0]]\n"),
    ("certify", "hull", [1, 2], "hull is not read"),
    ("certify", "certificate", [1, 2], "config needs a \"certificate\" object"),
    ("certify", "certificate", {**spring_config()["certificate"], "lambda_r": [2]},
     "invalid certificate: "),
    ("certify", None, [1, 2], "config must be an object"),
    ("epsilon-star", "omgea", {"x1": [-3, 3], "x2": [-3, 3], "z1": [-3, 3]},
     "unknown config keys: omgea\n"),
    ("certify", "certificate", {**spring_config()["certificate"], "sigma_r": float("nan")},
     "invalid certificate: sigma_r and sigma_f must be positive and finite\n"),
    ("epsilon-star", "certificate", {**spring_config()["certificate"], "sigma_f": float("inf")},
     "invalid certificate: sigma_r and sigma_f must be positive and finite\n"),
    ("certify", "certificate", {**spring_config()["certificate"], "lambda_f": float("nan")},
     "invalid certificate: lambda_r and lambda_f must be nonnegative and finite\n"),
    ("epsilon-star", "certificate", {**spring_config()["certificate"], "lambda_r": float("inf")},
     "invalid certificate: lambda_r and lambda_f must be nonnegative and finite\n"),
    ("certify", "certificate", {**spring_config()["certificate"], "p": 1.5},
     "invalid certificate: p must be an integer, got 1.5\n"),
    ("certify", "n_r", 2.5, "n_r must be an integer, got 2.5\n"),
    ("simulate", "n_f", True, "n_f must be an integer, got True\n"),
    ("certify", "spec_version", True, "config must be an object declaring \"spec_version\": 1\n"),
    ("certify", "spec_version", 1.0, "config must be an object declaring \"spec_version\": 1\n"),
    ("simulate", "eps", True, "eps must be a number, got True\n"),
    ("certify", "eps", "0.01", "eps must be a number, got '0.01'\n"),
    ("certify", "certificate", {**spring_config()["certificate"], "sigma_r": "0.01"},
     "invalid certificate: sigma_r must be a number, got '0.01'\n"),
    ("certify", "certificate", {**spring_config()["certificate"], "lambda_r": True},
     "invalid certificate: lambda_r must be a number, got True\n"),
    ("epsilon-star", "certificate", {**spring_config()["certificate"], "sigma_f": False},
     "invalid certificate: sigma_f must be a number, got False\n"),
    ("certify", "certificate", {**spring_config()["certificate"], "lambda_f": "0"},
     "invalid certificate: lambda_f must be a number, got '0'\n"),
    ("certify", "omega", {"x1": [False, True], "x2": [-3, 3], "z1": [-3, 3]},
     "omega interval for x1 must be a finite pair lo < hi, got [False, True]\n"),
    ("monotone-probe", "omega", {"x1": [-3, 3], "x2": ["-3", 3], "z1": [-3, 3]},
     "omega interval for x2 must be a finite pair lo < hi, got ['-3', 3]\n"),
    ("certify", None, {**LINEAR_CONFIG, "B": [["1"]]}, "B must be numbers, got [['1']]\n"),
    ("certify", None, {**LINEAR_CONFIG, "B": [[True]]}, "B must be numbers, got [[True]]\n"),
    ("epsilon-star", None, {**LINEAR_CONFIG, "C": [[False]]},
     "C must be numbers, got [[False]]\n"),
    ("certify", None, {**LINEAR_CONFIG, "A": [["-1"]]}, "A must be numbers, got [['-1']]\n"),
    ("certify", None, {**LINEAR_CONFIG, "A": [[None]]}, "A must be numbers, got [[None]]\n"),
    ("certify", None, {**LINEAR_CONFIG, "D": {"vertices": [[[-1]], [[True]]]}},
     "D must be numbers, got [[True]]\n"),
    ("certify", None, {**LINEAR_CONFIG, "certificate": {
        **LINEAR_CONFIG["certificate"], "P_r": [["-1"]], "p": 1}},
     "invalid certificate: P_r must be numbers, got [['-1']]\n"),
    ("epsilon-star", "certificate", {**spring_config()["certificate"], "P_f": [[True]]},
     "invalid certificate: P_f must be numbers, got [[True]]\n"),
    ("simulate", "initial_conditions", [["1", 0, 0]],
     "initial_conditions must be numbers, got [['1', 0, 0]]\n"),
    ("simulate", "initial_conditions", [[True, 0, 0]],
     "initial_conditions must be numbers, got [[True, 0, 0]]\n"),
    ("decouple", "linearization_point", [0, False, 0],
     "linearization_point must be numbers, got [0, False, 0]\n"),
    ("certify", "eps", BEYOND_DOUBLE, "eps must be a number, got 999"),
    ("certify", None, {**LINEAR_CONFIG, "A": [[BEYOND_DOUBLE]]}, "A must be numbers, got [[999"),
    ("certify", "certificate", {**spring_config()["certificate"],
                                "P_r": [[-BEYOND_DOUBLE, 0], [0, 1]]},
     "invalid certificate: P_r must be numbers, got [[-999"),
    # a falsy omega or linearization point used to become the default
    ("certify", "omega", False, "omega must name exactly the states ['x1', 'x2', 'z1'], "
     "got False\n"),
    ("certify", "omega", 0, "omega must name exactly the states ['x1', 'x2', 'z1'], got 0\n"),
    ("epsilon-star", "omega", "", "omega must name exactly the states ['x1', 'x2', 'z1'], "
     "got ''\n"),
    ("certify", "omega", [], "omega must name exactly the states ['x1', 'x2', 'z1'], got []\n"),
    ("monotone-probe", "omega", {}, "omega must name exactly the states ['x1', 'x2', 'z1'], "
     "got []\n"),
    ("decouple", "linearization_point", False, "linearization_point must be numbers, "
     "got False\n"),
    ("decouple", "linearization_point", 0, "linearization_point must be 3 numbers, got 0\n"),
    ("decouple", "linearization_point", [0, 0],
     "linearization_point must be 3 numbers, got [0, 0]\n"),
    ("certify", None, {**LINEAR_CONFIG, "A": [[[-1.0]], [[-2.0]]]},
     "vertex of shape (2, 1, 1), expected (2, 2)\n"),
], ids=["linearization-point", "initial-conditions", "linearization-point-nan",
        "linearization-point-infinity", "initial-conditions-nan", "initial-conditions-infinity",
        "hull-list", "certificate-list", "certificate-rate-list", "config-list",
        "misspelled-omega", "sigma-nan", "sigma-infinity", "lambda-nan", "lambda-infinity",
        "p-fraction", "n_r-fraction", "n_f-bool", "spec-version-bool", "spec-version-float",
        "eps-bool", "eps-string", "sigma-string", "lambda-bool", "sigma-bool", "lambda-string",
        "omega-bool", "omega-string", "B-string", "B-bool", "C-bool", "A-string", "A-null",
        "D-vertex-bool", "P_r-string", "P_f-bool", "initial-conditions-string",
        "initial-conditions-bool", "linearization-point-bool", "eps-beyond-double",
        "A-beyond-double", "P_r-beyond-double", "omega-false", "omega-zero",
        "omega-empty-string", "omega-empty-list", "omega-empty-object",
        "linearization-point-false", "linearization-point-zero", "linearization-point-short",
        "A-plain-3d"])
def test_malformed_numeric_field_exits_1(tmp_path, capsys, command, field, value, message):
    # field None: value is the whole config
    cfg = value if field is None else {**spring_config(), field: value}
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, write_cfg(tmp_path, cfg)] + extra) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("command", ["certify", "epsilon-star", "decouple", "simulate",
                                     "monotone-probe"])
@pytest.mark.parametrize("field, value, message", [
    ("f", ["x2", "7*tanh(x1) - 5*x1 - 5*z1 + 1e400*x1*x2"],
     "invalid value encountered in multiply"),  # inf * 0 at the origin
    ("f", "12", "f must be a list of expressions, got the string '12'"),
    ("g", "z1", "g must be a list of expressions, got the string 'z1'"),
    ("f", 12, "f must be a list of expression strings, got 12"),
    ("f", ["x2", 7], "f must be a list of expression strings, got ['x2', 7]"),
    ("f", None, "f must be a list of expression strings, got None"),
    ("f", [["x2"], "x1"], "f must be a list of expression strings, got [['x2'], 'x1']"),
    ("f", {"x2": 0, "7*tanh(x1) - 5*x1 - 5*z1": 0}, "f must be a list of expression "
     "strings, got {'x2': 0, '7*tanh(x1) - 5*x1 - 5*z1': 0}"),
    ("g", {"x2 - z1": [1, 2]}, "g must be a list of expression strings, "
     "got {'x2 - z1': [1, 2]}"),
], ids=["constant-beyond-double", "f-string", "g-string", "f-number", "f-number-entry",
        "f-null", "f-list-entry", "f-object", "g-object"])
def test_expression_config_error_exits_1(tmp_path, capsys, command, field, value, message):
    # the 1e400 literal compiles as inf (it used to end in a NameError traceback);
    # a bare string used to be read one character per entry, a JSON object as
    # its keys, and a non-string entry failed with a message naming no field
    extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, write_cfg(tmp_path, {**spring_config(), field: value})] + extra) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["certify", "epsilon-star", "decouple", "monotone-probe"])
@pytest.mark.parametrize("block, value", [("D", {"vertices": [[[float("nan")]]]}),
                                          ("A", {"vertices": [[[float("nan")]]]}),
                                          ("B", [[float("inf")]])],
                         ids=["D-vertex-nan", "A-vertex-nan", "B-infinity"])
def test_non_finite_linear_block_exits_1(tmp_path, capsys, command, block, value):
    # JSON NaN and Infinity in a linear config: each used to crash with an SVD
    # traceback (D) or get an exit-2 verdict such as "infeasible" (A, B)
    assert main([command, linear_cfg(tmp_path, **{block: value})]) == 1
    assert capsys.readouterr().err == (f"config error: {block} must be finite, "
                                       "got a NaN or infinite entry\n")


@pytest.mark.parametrize("command, flag", [("certify", "--report"), ("simulate", "--out"),
                                           ("reproduce-paper", "--out")])
def test_unwritable_output_exits_1(tmp_path, capsys, command, flag):
    # an output path under a regular file can be neither made nor written
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = [] if command == "reproduce-paper" else [spring_cfg_path(tmp_path)]
    assert main([command] + config + [flag, str(blocker / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command", ["certify", "epsilon-star", "monotone-probe"])
def test_certificate_blocks_of_the_wrong_size_exit_1(tmp_path, capsys, command):
    # a 1x1 P_r on the spring's 2 slow states: each command says so in one line
    cfg = spring_config()
    cfg["certificate"].update(P_r=[[1.0]], p=0)
    assert main([command, write_cfg(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == "config error: certificate blocks 1+1 vs system 2+1\n"


def test_eps_max_below_the_floor_exits_1(tmp_path, capsys):
    report = tmp_path / "rep.json"
    assert main(["epsilon-star", spring_cfg_path(tmp_path), "--eps-max", "1e-13",
                 "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: eps_max 1e-13 is below the floor " \
                           f"EPS_FLOOR = {EPS_FLOOR}\n"
    assert captured.out == "" and not report.exists()


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
    ("epsilon-star", {"eps_floor": EPS_FLOOR, "bisect_steps": BISECT_STEPS,
                      "checked_at": "vertex_pairs"}),
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
     ["t_final", "tolerances", "equilibria", "integrator", "trajectories", "csv_files"]),
    (["reproduce-paper", "--out", "{out}"],
     ["eps", "certificate", "epsilon_star", "monotone_violations", "equilibria",
      "integrator", "trajectories", "csv_files", "monotone_probe", "tolerances", "checks",
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
                                  ["monotone-probe", "x", "--pairs", "abc"],
                                  ["simulate", "config.json", "--tol", "1e-3"],
                                  ["reproduce-paper", "--sigma-r", "0.01"]])
def test_usage_error_exits_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # where a command that did run would write
    linear_cfg(tmp_path)
    assert main(argv) == 1
    assert "usage: spdominance" in capsys.readouterr().err  # argparse's own message


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: spdominance")


def test_readme_documents_every_flag():
    # README's "Command line" section names every flag of every subcommand,
    # and each flag that an spdominance command in README shows is one its
    # subcommand takes
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {f for a in parser._actions + p._actions for f in a.option_strings
                    if f.startswith("--") and f != "--help"}
             for name, p in sub.choices.items()}
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    assert set().union(*flags.values()) - set(re.findall(r"--[a-z][a-z-]*", section)) == set()
    commands = [line.split() for line in readme.splitlines() if line.startswith("spdominance ")]
    assert commands
    for words in commands:
        command = next(w for w in words[1:] if not w.startswith("--"))
        assert {w for w in words if w.startswith("--")} <= flags[command], words


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


# a 2+1 linear system that certify, epsilon-star and the probe pass, for the fuzz
LINEAR_2_1_CONFIG = {
    "spec_version": 1, "kind": "linear", "eps": 0.1,
    "A": [[-1.0, 0.0], [0.0, -3.0]], "B": [[0.0], [0.1]], "C": [[0.1, 0.0]], "D": [[-1.0]],
    "certificate": {"P_r": [[-1.0, 0.0], [0.0, 1.0]], "P_f": [[1.0]], "lambda_r": 2.0,
                    "lambda_f": 0.5, "sigma_r": 0.5, "sigma_f": 0.5, "p": 1},
    "initial_conditions": [[1.0, 0.0, 0.0]],
}


CERTIFICATE_KEYS = ("P_r", "P_f", "lambda_r", "lambda_f", "sigma_r", "sigma_f", "p")
FUZZ_FIELDS = (
    [("spring", (key,)) for key in ("spec_version", "n_r", "n_f", "eps", "f", "g", "omega",
                                    "certificate", "initial_conditions", "linearization_point")]
    + [("spring", path) for path in (("f", 1), ("g", 0), ("omega", "x1"),
                                     ("initial_conditions", 0))]
    + [("linear", (key,)) for key in ("A", "B", "C", "D", "eps", "omega", "certificate",
                                      "initial_conditions")]
    + [("linear", path) for path in (("A", 0), ("D", 0), ("initial_conditions", 0))]
    + [(base, ("certificate", key)) for base in ("spring", "linear") for key in CERTIFICATE_KEYS])
ODD_VALUES = [BEYOND_DOUBLE, -BEYOND_DOUBLE, float("nan"), float("-inf"), "x1", "", True, None,
              {}, {"vertices": []}, [[1.0, 2.0], [3.0]], 2 ** 31, -2 ** 31, 1e-320, 0, 1e308]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(field=st.sampled_from(FUZZ_FIELDS), value=st.sampled_from(ODD_VALUES),
       depth=st.integers(0, 2))
# the two configs whose probe used to end in SingularP
@example(field=("spring", ("certificate", "P_f")), value=2 ** 31, depth=2)
@example(field=("linear", ("D",)), value=1e-320, depth=2)
# a fast block too stiff for the explicit pair, which simulate and the probe refuse
@example(field=("linear", ("D",)), value=-2 ** 31, depth=2)
def test_config_fuzz_never_raises(tmp_path_factory, field, value, depth):
    # one field of a working config replaced by an odd value, nested depth lists
    # deep: every command returns an exit code, whatever the value
    base, path = field
    cfg = copy.deepcopy(spring_config() if base == "spring" else LINEAR_2_1_CONFIG)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    for _ in range(depth):
        value = [value]
    node[path[-1]] = value
    tmp = tmp_path_factory.mktemp("fuzz")
    config = write_cfg(tmp, cfg)
    for argv in (["certify"], ["epsilon-star"], ["decouple"],
                 ["simulate", "--t-final", "0.1", "--out", str(tmp / "out")],
                 ["monotone-probe", "--pairs", "2", "--t-final", "0.1"]):
        assert main([argv[0], config] + argv[1:]) in (0, 1, 2)


@pytest.mark.parametrize("argv", [["simulate", "--out", "out"],
                                  ["monotone-probe", "--pairs", "2"]])
def test_stiff_linear_fast_block_exits_1(tmp_path, capsys, monkeypatch, argv):
    # a fast eigenvalue near -2e10: stepping it would take ~1e9 stability-bound steps
    monkeypatch.chdir(tmp_path)
    config = write_cfg(tmp_path, {**LINEAR_2_1_CONFIG, "D": [[-2 ** 31]]})
    assert main([argv[0], config, "--t-final", "0.1"] + argv[1:]) == 1
    assert capsys.readouterr().err == ("config error: spectral radius times span is 2.15e+09, "
                                       "above the explicit DOP853 pair's step budget 1e+06\n")


@pytest.mark.parametrize("argv", [["simulate", "--out", "out"],
                                  ["monotone-probe", "--pairs", "2"]])
def test_stiff_nonlinear_fast_block_exits_1(tmp_path, capsys, monkeypatch, argv):
    # g scaled by 2^31 puts a fast eigenvalue near -2e11 at the initial states,
    # refused before the first step as a stiff linear fast block is
    monkeypatch.chdir(tmp_path)
    config = write_cfg(tmp_path, {**spring_config(), "g": ["2147483648*(x2 - z1)"]})
    assert main([argv[0], config, "--t-final", "0.1"] + argv[1:]) == 1
    assert capsys.readouterr().err == ("config error: spectral radius times span is 2.15e+10, "
                                       "above the explicit DOP853 pair's step budget 1e+06\n")


@pytest.mark.parametrize("argv", [["simulate", "--out", "out"],
                                  ["monotone-probe", "--pairs", "2"]])
def test_fast_block_stiff_only_divided_by_eps_exits_1(tmp_path, capsys, monkeypatch, argv):
    # g's Jacobian, 1e307, is finite but overflows divided by eps: an infinite
    # radius, refused before the first step; simulate's Newton, whose residual
    # norm overflows at some seeds, fails those seeds rather than the command
    monkeypatch.chdir(tmp_path)
    config = write_cfg(tmp_path, {**spring_config(), "g": ["1e307*(x2 - z1)"]})
    assert main([argv[0], config, "--t-final", "0.1"] + argv[1:]) == 1
    assert capsys.readouterr().err == ("config error: spectral radius times span is inf, "
                                       "above the explicit DOP853 pair's step budget 1e+06\n")


@pytest.mark.filterwarnings("ignore:system does not vanish at the origin")
def test_start_the_field_overflows_at_exits_2(tmp_path, capsys):
    # exp(720) overflows in the field and in its Jacobian: the step budget leaves
    # that state out, and the integrator reports it as escaped
    cfg = {**spring_config(), "f": ["x2", "exp(x1) - 5*x1 - 5*z1"],
           "initial_conditions": [[720, 0, 0]]}
    assert main(["simulate", write_cfg(tmp_path, cfg), "--t-final", "0.1",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == "diverged: state escaped at t=0: non-finite error estimate\n"


def test_decouple_checks_a_linear_linearization_point(tmp_path, capsys):
    # a linear system reads its blocks through jacobians too, so the point is checked
    assert main(["decouple", write_cfg(tmp_path, {**LINEAR_2_1_CONFIG,
                                                  "linearization_point": [0, 0]})]) == 1
    assert capsys.readouterr().err == ("config error: linearization_point must be 3 numbers, "
                                       "got [0, 0]\n")
