"""Self-test of the benchmark: every workload at minimal length emits every
metric with a unit, the outputs pass their gates, and a perturbed output
trips the gate that guards it.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from recorder import Recorder  # noqa: E402


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def collected(request):
    # seconds=0: one untraced pass, then the traced pass
    return request.param, run.collect(request.param, seed=0, seconds=0, trace=1)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_every_metric_is_emitted_and_every_gate_passes(collected):
    _, (inputs, refs, setups, result) = collected
    for trace, units in ((0, {k: u for k, (u, _) in run.END_TO_END.items()}),
                         (1, run.per_layer_units())):
        metrics, summary, failures = run.summarize(inputs, refs, setups, result, trace)
        assert failures == []
        assert {k: m["unit"] for k, m in metrics.items()} == units
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
        assert summary["failed_ratio"] == 0.0
    assert result["missing_layers"] == []
    assert result["trace"]["trace.spans"] > 0
    assert result["trace"]["trace.overhead_ratio"] > 0


def test_traced_pass_exercises_the_expected_layers(collected):
    workload, (_, _, _, result) = collected
    t = result["trace"]
    if workload == "paper":
        assert t["analyze.classifications"] == 20000
        assert t["sampling.pairs"] == 100 and t["sampling.cone_tests"] >= 100
        assert t["integrate.rhs_evals"] > 0 and t["integrate.csv_bytes"] > 0
    elif workload == "lmi-sweep":
        assert t["integrate.self_s"] == 0 and t["integrate.rhs_evals"] == 0
        assert t["decouple.chang_solves"] > 0 and t["certify.lmi_residuals"] > 0
        assert t["linalg.eig_n_max"] == 8
    else:
        assert t["integrate.rhs_rows"] == t["integrate.rhs_evals"] > 0
        assert t["expressions.compile_calls"] > 0
        assert t["linalg.calls"] == 0 and t["analyze.calls"] == 0


def test_speed_bursts_surround_every_operation(collected):
    workload, (_, _, _, result) = collected
    bursts, spans = result["bursts"], result["op_spans"]
    if workload == "paper":
        assert bursts == [] and spans == []
        return
    assert len(spans) == len(result["ops"])
    assert bursts[0][1] <= spans[0][0] and bursts[-1][0] >= spans[-1][1]
    assert all(b[2] > 0 for b in bursts)


def test_scale_ops_uses_the_bursts_on_either_side():
    ref = speed.REFERENCE_KERNEL_S
    bursts = [[0.0, 1.0, ref], [2.0, 2.5, 3 * ref], [4.0, 4.1, ref]]
    factors = speed.scale_ops([[1.0, 2.0], [1.5, 1.9], [2.5, 4.0]], bursts)
    assert factors == pytest.approx([0.5, 0.5, 0.5])
    assert speed.scale_ops([[1.0, 2.0]], [[0.0, 1.0, ref], [2.0, 3.0, ref]]) == [1.0]


def _gate(workload, inputs, refs, out, index=0):
    if workload == "paper":
        return oracles.verify_paper(refs, out)
    if workload == "variational":
        return oracles.verify_variational(refs["endpoints"][index], out)
    return oracles.verify_lmi(inputs["systems"][index], refs["certify"][index], out, {})


def _perturbations(workload, inputs):
    """(operation index, description, edit) triples; each edit must trip a gate."""
    if workload == "paper":
        def shift_equilibrium(out):
            out["report"]["equilibria"][0][0] += 1e-7

        def shift_endpoint(out):
            out["csv_last_rows"][2][1] += 1e-5

        def bad_exit(out):
            out["exit"] = 1

        def lose_classification(out):
            out["report"]["monotone_probe"]["total_classifications"] -= 1
            out["report"]["monotone_probe"]["interior"] -= 1

        def infeasible(out):
            out["report"]["certificate"]["feasible"] = False

        def eps_too_small(out):
            out["report"]["epsilon_star"] = workloads.SPRING_EPS / 2

        edits = (shift_equilibrium, shift_endpoint, bad_exit, lose_classification,
                 infeasible, eps_too_small)
        return [(0, e.__name__, e) for e in edits]
    if workload == "variational":
        def shift_base(out):
            out["base"][1] += 1e-6

        def shift_delta(out):
            out["delta"][2] -= 1e-6

        return [(3, "shift_base", shift_base), (3, "shift_delta", shift_delta)]

    feasible = next(i for i, shape in enumerate(workloads.LMI_SHAPES) if shape[-1])
    infeasible = next(i for i, shape in enumerate(workloads.LMI_SHAPES) if not shape[-1])

    def shift_margin(out):
        out["certify_report"]["certificate"]["slow"]["margins"][0] += 1e-6

    def flip_verdict(out):
        out["certify_exit"] = 2 - out["certify_exit"]

    def eps_at_max(out):
        # the generated fast blocks fail the block conditions at eps = 1
        out["eps_report"]["epsilon_star"] = workloads.LMI_EPS_MAX

    def claim_feasible(out):
        out["eps_exit"], out["eps_report"]["epsilon_star"] = 0, 1e-6

    def crash(out):
        out["error"] = "Traceback: boom"

    return [(feasible, "shift_margin", shift_margin), (feasible, "flip_verdict", flip_verdict),
            (feasible, "eps_at_max", eps_at_max), (infeasible, "claim_feasible", claim_feasible),
            (infeasible, "crash", crash)]


def test_perturbed_outputs_trip_their_gates(collected):
    workload, (inputs, refs, _, result) = collected
    for index, name, edit in _perturbations(workload, inputs):
        out = copy.deepcopy(result["ops"][index][1])
        assert _gate(workload, inputs, refs, out, index) == [], name
        edit(out)
        assert _gate(workload, inputs, refs, out, index), f"{name} passed the gate"


def test_command_prints_the_result_line():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "variational", "--seed", "4",
                           "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == workloads.VARIATIONAL_DRAWS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_recorder_counts_at_every_binding_and_folds_recursion(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import numpy as np
    from spdominance import certify, expressions
    with Recorder() as rec:
        ast = expressions.parse_expr("x1 * (x1 + 1) - 2")
        expressions.evaluate(ast, {"x1": 3.0})
        # certify calls nsd_margin through `from .linalg import nsd_margin`
        certify.certify_polytope(np.eye(2), certify.MatrixPolytope([-np.eye(2)]), 0.1, 0.1)
    m = rec.metrics()
    assert m["expressions.evaluate_calls"] == 1
    assert m["certify.lmi_residuals"] == 1
    assert m["linalg.eig_calls"] == 1 and m["linalg.eig_n_max"] == 2
    assert m["expressions.calls"] == 2 and m["linalg.calls"] == 3
    assert certify.nsd_margin.__name__ == "nsd_margin" and not hasattr(certify.nsd_margin, "__wrapped__")


def test_recorder_tolerates_missing_layers_and_functions(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import spdominance.linalg
    monkeypatch.delattr(spdominance.linalg, "jacobi_eig")
    monkeypatch.setitem(sys.modules, "spdominance.cone", None)
    with Recorder() as rec:
        pass
    m = rec.metrics()
    assert rec.missing_layers == ["cone"]
    assert set(run.per_layer_units()) - set(m) == {"trace.overhead_ratio"}
    assert m["cone.calls"] == 0 and m["linalg.eig_calls"] == 0
