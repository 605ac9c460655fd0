"""spdominance benchmark: three workloads, oracle-checked, one command.

    python3 perfbench/run.py                          # every workload, summary table
    python3 perfbench/run.py --workload lmi-sweep --seed 3 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports spdominance from the
checkout's `src`. For each workload it generates the inputs from the seed,
computes the oracle references, times the import and input building in
fresh interpreters (`setup_s`), runs the workload in one more fresh
interpreter for `--seconds`, and checks every recorded output against the
oracles. On lmi-sweep and variational, `run_s` and `op_s_p50` are read at
a reference speed of the machine (speed.py). `--trace 1` replaces the end-to-end metrics by the per-layer ones
from a traced pass. The last line of standard output is one JSON object;
the exit code is 0 only when every output passed its gate. README.md next
to this file explains the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import oracles  # noqa: E402
import recorder  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 25
SETUP_PROBES = 8
DEADLINE_S = 170.0
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it

# Metric name -> (unit, better); the end-to-end set is what BENCHMARK.json
# lists, the per-layer set is the recorder's.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_units():
    units = {}
    for layer in recorder.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(recorder.COUNTERS)
    units["trace.overhead_ratio"] = "ratio"
    return units


class BenchError(RuntimeError):
    pass


def environment():
    import numpy
    import scipy
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "DOMINION_THREADS": os.environ.get("DOMINION_THREADS"),
    }


def program_env():
    # The probe's thread pool is measured as users get it by default.
    env = dict(os.environ)
    env.pop("DOMINION_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(mode, spec_path, deadline):
    """Run the worker in a fresh interpreter; returns its standard output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, mode, spec_path],
                              env=program_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def check_module(path):
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise BenchError(f"imported spdominance from {path}, not from {SRC}")


def verify(inputs, refs, ops):
    """Gate every recorded operation; returns a failure list per operation."""
    workload = inputs["workload"]
    if workload == "paper":
        return [oracles.verify_paper(refs, out) for _, out in ops]
    if workload == "variational":
        n = len(refs["endpoints"])
        return [oracles.verify_variational(refs["endpoints"][k % n], out)
                for k, (_, out) in enumerate(ops)]
    systems = inputs["systems"]
    caches = [{} for _ in systems]
    return [oracles.verify_lmi(systems[k % len(systems)], refs["certify"][k % len(systems)],
                               out, caches[k % len(systems)])
            for k, (_, out) in enumerate(ops)]


def collect(workload, seed, seconds, trace):
    """Generate the inputs, compute the oracle references, time set-up and
    run the workload. Returns (inputs, refs, setup times, worker result)."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        inputs = workloads.generate(workload, seed)
        inputs_path = os.path.join(work, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        for i, cfg in enumerate(inputs.get("systems", ())):
            with open(os.path.join(work, f"system_{i:02d}.json"), "w") as fh:
                json.dump(cfg, fh)
        refs = oracles.references(inputs)

        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        with open(spec_path, "w") as fh:
            json.dump({"inputs": inputs_path, "work": work, "result": result_path,
                       "seconds": seconds, "trace": bool(trace)}, fh)

        def probe_setup():
            probe = json.loads(spawn("setup", spec_path, deadline).strip().splitlines()[-1])
            check_module(probe["module"])
            return probe["setup_s"]

        # half the set-up probes before the run and half after it: the
        # import's speed shifts over seconds, and the median spans both
        setups = [probe_setup() for _ in range(SETUP_PROBES // 2)]
        spawn("run", spec_path, deadline)
        setups += [probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        with open(result_path) as fh:
            result = json.load(fh)
        check_module(result["module"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return inputs, refs, setups, result


def summarize(inputs, refs, setups, result, trace):
    """Gate every output and derive the metrics. Returns (metrics for the
    result line, summary with every figure, failures)."""
    ops = result["ops"] + result.get("traced_ops", [])
    failures = [(k, f) for k, fails in enumerate(verify(inputs, refs, ops)) for f in fails]
    failed_ops = len({k for k, _ in failures})
    # timings at the reference speed (speed.py) on the workloads that take
    # bursts, wall time on the others; the wall times are kept in the
    # summary for people
    wall_op_s = [elapsed for elapsed, _ in result["ops"]]
    factors = (speed.scale_ops(result["op_spans"], result["bursts"]) if result["bursts"]
               else [1.0] * len(wall_op_s))
    op_s = [t * f for t, f in zip(wall_op_s, factors)]
    n_ops = len(op_s) // len(result["pass_s"])
    pass_s = [sum(op_s[k:k + n_ops]) for k in range(0, len(op_s), n_ops)]
    summary = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(pass_s),
        "op_s_p50": statistics.median(op_s),
        "op_s_p90": (statistics.quantiles(op_s, n=10)[8]
                     if len(op_s) >= P90_MIN_SAMPLES else None),
        "failed_ratio": failed_ops / len(ops),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_s": pass_s,
        "setup_s_all": setups,
        "wall_run_s": statistics.median(result["pass_s"]),
        "wall_op_s_p50": statistics.median(wall_op_s),
        "kernel_s": [b[2] for b in result["bursts"]],
        "passes": len(result["pass_s"]),
        "ops": len(op_s),
        "attempted": len(ops),
        "failed": failed_ops,
    }
    if trace:
        metrics = {name: {"value": result["trace"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        summary["missing_layers"] = result["missing_layers"]
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    return metrics, summary, failures


def print_summary(workload, seed, metrics, summary, failures):
    if workload == "paper":
        print("paper: fixed inputs (the paper's worked example, probe seed 42 "
              f"inside the program); --seed {seed} does not change them")
    else:
        print(f"{workload}: inputs generated from seed {seed}")
    print(f"  {summary['passes']} passes, {summary['ops']} timed operations, "
          f"setup_s is the median of {SETUP_PROBES} fresh interpreters")
    print("  pass_s " + " ".join(f"{t:.4f}" for t in summary["pass_s"]))
    print("  setup_s " + " ".join(f"{t:.4f}" for t in summary["setup_s_all"]))
    kernel_s = summary["kernel_s"]
    if kernel_s:
        print(f"  reference kernel {len(kernel_s)} bursts, median {statistics.median(kernel_s):.6f} s, "
              f"range {min(kernel_s):.6f}-{max(kernel_s):.6f} s "
              f"(timings are scaled to {speed.REFERENCE_KERNEL_S} s)")
    else:
        print("  reference kernel not run on this workload; timings are wall time")
    print(f"  wall time: run_s {summary['wall_run_s']:.6g} s, "
          f"op_s_p50 {summary['wall_op_s_p50']:.6g} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    # op_s_p90 and failed_ratio are printed here but kept off the result
    # line: p90 has too few samples on paper, and failed_ratio is 0 on a
    # correct program, which a relative bound cannot gate
    p90 = summary["op_s_p90"]
    print(f"  {'op_s_p90':28s} " + (f"{p90:.6g} s" if p90 is not None else
          f"n/a ({summary['ops']} samples, needs {P90_MIN_SAMPLES})"))
    print(f"  {'failed_ratio':28s} {summary['failed_ratio']:.6g} ratio "
          f"({summary['failed']}/{summary['attempted']})")
    if summary.get("missing_layers"):
        print(f"  layers not found: {', '.join(summary['missing_layers'])}")
    for k, message in failures[:10]:
        print(f"  GATE FAILED (operation {k}): {message}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spdominance", "__init__.py")):
        print(f"perfbench: no spdominance sources under {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        try:
            collected = collect(name, args.seed, args.seconds, args.trace)
        except BenchError as e:
            print(f"perfbench: {name}: {e}", file=sys.stderr)
            return 2
        metrics, summary, failures = summarize(*collected, args.trace)
        print_summary(name, args.seed, metrics, summary, failures)
        lines[name] = {"correct": not failures, "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics}
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
