"""Runs one workload through spdominance's public entry points.

run.py starts this file in a fresh interpreter, with the checkout's `src`
first on PYTHONPATH, in one of two modes:

    worker.py setup <spec.json>   import spdominance and build the inputs
                                  into program objects; print the seconds
    worker.py run <spec.json>     time passes over the inputs and record
                                  every operation's output to the result file,
                                  with bursts of the reference kernel
                                  (speed.py) between operations where the
                                  program's `speed_scaled` says so

The worker only runs and times the program. Generating inputs and checking
outputs against the oracles is run.py's job, outside every timing.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _mod(name):
    # looked up at call time, so the traced run goes through the recorder's
    # wrappers rather than a reference taken before it was installed
    return importlib.import_module(f"spdominance.{name}")


def _fail(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _tail_row(path):
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 4096))
        last = fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]
    return [float(v) for v in last.split(",")]


class Paper:
    """reproduce-paper through cli.main; one pass is one run."""

    # Timed in wall time: bursts between 9 s runs sample the host only at
    # their ends, and the kernel's speed did not follow this run's (see
    # README.md, Reference speed)
    speed_scaled = False

    def __init__(self, inputs, work):
        cli = _mod("cli")
        cfg = cli.spring_config()
        # the objects set-up builds and setup_s times; each run rebuilds its own
        self.objects = (cli.build_system(cfg), cli.build_certificate(cfg))
        self.argv = ["--no-timestamp", "reproduce-paper",
                     "--out", os.path.join(work, "paper_out")]
        self.n_ops = 1

    def op(self, i):
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = _mod("cli").main(self.argv)
        elapsed = time.perf_counter() - t0
        with open(os.path.join(self.argv[-1], "report.json")) as fh:
            report = json.load(fh)
        rows = [_tail_row(p) for p in report.get("csv_files", [])]
        return elapsed, {"exit": code, "report": report, "csv_last_rows": rows}


class LmiSweep:
    """Each generated system through the certify and epsilon-star commands."""

    speed_scaled = True

    def __init__(self, inputs, work):
        cli = _mod("cli")
        # the objects set-up builds and setup_s times; each command rebuilds
        # its own from the config file
        self.objects = [(cli.build_system(cfg), cli.build_certificate(cfg))
                        for cfg in inputs["systems"]]
        self.eps_max = str(inputs["eps_max"])
        # run.py has written each config to the file the CLI reads
        self.paths = [os.path.join(work, f"system_{i:02d}.json")
                      for i in range(len(inputs["systems"]))]
        self.report = os.path.join(work, "report.json")
        self.n_ops = len(self.paths)

    def _command(self, argv):
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = _mod("cli").main(["--no-timestamp"] + argv + ["--report", self.report])
        elapsed = time.perf_counter() - t0
        with open(self.report) as fh:
            return elapsed, code, json.load(fh)

    def op(self, i):
        t_cert, c_exit, c_rep = self._command(["certify", self.paths[i]])
        t_eps, e_exit, e_rep = self._command(
            ["epsilon-star", self.paths[i], "--eps-max", self.eps_max])
        return t_cert + t_eps, {"certify_exit": c_exit, "certify_report": c_rep,
                                "eps_exit": e_exit, "eps_report": e_rep}


class Variational:
    """integrate_variational on seeded (x0, delta0) draws of the spring."""

    speed_scaled = True

    def __init__(self, inputs, work):
        import numpy as np
        cfg = inputs["system"]
        self.system = _mod("systems").NonlinearSPSystem(
            n_r=cfg["n_r"], n_f=cfg["n_f"], f=cfg["f"], g=cfg["g"], eps=cfg["eps"],
            omega={k: tuple(v) for k, v in cfg["omega"].items()})
        self.x0 = np.array(inputs["x0"], dtype=float)
        self.delta0 = np.array(inputs["delta0"], dtype=float)
        self.t_span = (0.0, float(inputs["t_final"]))
        self.n_ops = len(self.x0)

    def op(self, i):
        t0 = time.perf_counter()
        traj = _mod("integrate").integrate_variational(
            self.system, self.x0[i], self.delta0[i], self.t_span)
        elapsed = time.perf_counter() - t0
        return elapsed, {"base": traj.base.states[-1].tolist(),
                         "delta": traj.delta_states[-1].tolist()}


PROGRAMS = {"paper": Paper, "lmi-sweep": LmiSweep, "variational": Variational}


def run_passes(program, seconds, passes, ops, spans=None, probe=None):
    """Full passes over the inputs until `seconds` have gone by (at least
    one). Appends each pass's time (the sum of its operations' times) to
    `passes` and [seconds, output] per operation to `ops`. With a speed
    probe, runs its bursts between operations (one before the first and
    one after the last) and appends each operation's [start, end] to
    `spans`."""
    start = time.perf_counter()
    if probe is not None:
        probe.between_ops(force=True)
    while True:
        total = 0.0
        for i in range(program.n_ops):
            t0 = time.perf_counter()
            try:
                elapsed, output = program.op(i)
            except (Exception, SystemExit) as exc:
                elapsed, output = time.perf_counter() - t0, {"error": _fail(exc)}
            total += elapsed
            ops.append([elapsed, output])
            if probe is not None:
                spans.append([t0, time.perf_counter()])
                probe.between_ops()
        passes.append(total)
        if time.perf_counter() - start >= seconds:
            if probe is not None:
                probe.between_ops(force=True)
            return


def main(argv):
    mode, spec_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    with open(spec["inputs"]) as fh:
        inputs = json.load(fh)
    program_cls = PROGRAMS[inputs["workload"]]
    t0 = time.perf_counter()
    import spdominance

    if mode == "setup":
        program_cls(inputs, spec["work"])
        print(json.dumps({"setup_s": time.perf_counter() - t0,
                          "module": spdominance.__file__}))
        return 0

    program = program_cls(inputs, spec["work"])
    from speed import SpeedProbe
    probe = SpeedProbe() if program.speed_scaled else None
    passes, ops, spans = [], [], []
    result = {"module": spdominance.__file__}
    if not spec["trace"]:
        run_passes(program, spec["seconds"], passes, ops, spans, probe)
    else:
        # untraced passes for the overhead baseline, then one traced pass
        # that starts from freshly built program objects
        run_passes(program, spec["seconds"] / 2.0, passes, ops, spans, probe)
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from recorder import Recorder
        traced, result["traced_ops"] = [], []
        with Recorder() as rec:
            program = program_cls(inputs, spec["work"])
            run_passes(program, 0.0, traced, result["traced_ops"])
        metrics = rec.metrics()
        metrics["trace.overhead_ratio"] = traced[0] / statistics.median(passes)
        result["trace"] = metrics
        result["missing_layers"] = rec.missing_layers
    result["pass_s"] = passes
    result["ops"] = ops
    result["op_spans"] = spans
    result["bursts"] = probe.bursts if probe is not None else []
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
