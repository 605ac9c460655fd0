"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each spdominance module (the
layers) from outside the package. A function object is replaced at every
module binding it has, so a call through `from .linalg import nsd_margin`
in another module is caught as well as one through `linalg.nsd_margin`.
Each wrapped call is a span: function, parent function, duration, and self
time (duration minus the time of child spans on the same thread). A call
of a function into itself is folded into the outer span, so a recursive
`evaluate` is one span. Spans stay in memory, in compact arrays per
thread, until `metrics()` reads them at the end of the run.

Time a worker thread spends in a child layer is not subtracted from the
parent's span on the calling thread: `analyze.self_s` includes the wait on
the probe's thread pool, and the per-layer self times may sum to more than
the wall time when the pool runs.

Functions that a later version of the package removes or renames are
simply absent: their layer and counters are still reported, as zero.
"""

import functools
import importlib
import inspect
import math
import os
import sys
import threading
import time
from array import array

PACKAGE = "spdominance"
LAYERS = ("cli", "analyze", "sampling", "integrate", "systems", "expressions",
          "decouple", "certify", "cone", "linalg")

# Counters beyond <layer>.self_s and <layer>.calls, with their units.
COUNTERS = {
    "integrate.rhs_evals": "count",
    "integrate.rhs_rows": "rows",
    "integrate.rhs_s": "s",
    "integrate.csv_bytes": "bytes",
    "integrate.csv_s": "s",
    "analyze.classifications": "count",
    "analyze.outside": "count",
    "analyze.boundary": "count",
    "sampling.cone_tests": "count",
    "sampling.pairs": "count",
    "sampling.accept_ratio": "ratio",
    "linalg.eig_calls": "count",
    "linalg.eig_n_max": "rows",
    "certify.lmi_residuals": "count",
    "decouple.chang_solves": "count",
    "decouple.chang_failures": "count",
    "decouple.chang_s": "s",
    "systems.jacobian_evals": "count",
    "expressions.compile_calls": "count",
    "expressions.evaluate_calls": "count",
    "trace.spans": "count",
}

_EIGEN = ("linalg.sym_eigvals", "linalg.jacobi_eig")

_now = time.perf_counter


class _ThreadLog:
    """One thread's open spans and its finished ones."""

    def __init__(self):
        self.stack = []          # [function id, child time] per open span
        self.fid = array("i")
        self.parent = array("i")
        self.dur = array("d")
        self.self_s = array("d")
        self.counts = {}
        self.in_rhs = False

    def close(self, frame, parent, t0):
        """End the innermost open span."""
        dur = _now() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur
        self.fid.append(frame[0])
        self.parent.append(parent)
        self.dur.append(dur)
        self.self_s.append(dur - frame[1])

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


class Recorder:
    def __init__(self):
        self.names = []           # "layer.function" per function id
        self.missing_layers = []
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._patches = []        # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = []
        for layer in LAYERS:
            try:
                modules.append((layer, importlib.import_module(f"{PACKAGE}.{layer}")))
            except ImportError:
                self.missing_layers.append(layer)
        wrappers = {}
        for layer, mod in modules:
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        bound = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _wrap(self, fn, qualname):
        fid = len(self.names)
        self.names.append(qualname)
        hook = _HOOKS.get(qualname)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = recorder._log()
            stack = log.stack
            if stack and stack[-1][0] == fid:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [fid, 0.0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                log.close(frame, parent, t0)
                if hook is not None:
                    hook(recorder, log, args, kwargs, None, error)
                raise
            log.close(frame, parent, t0)
            if hook is not None:
                result = hook(recorder, log, args, kwargs, result, None)
            return result
        return wrapper

    def count_rhs(self, rhs):
        """Wrap a right-hand-side closure: count outermost evaluations, the
        state rows they cover and the time spent inside them."""
        recorder = self

        @functools.wraps(rhs)
        def counted(s):
            log = recorder._log()
            if log.in_rhs:
                return rhs(s)
            log.in_rhs = True
            t0 = _now()
            try:
                return rhs(s)
            finally:
                log.add("integrate.rhs_s", _now() - t0)
                log.in_rhs = False
                log.add("integrate.rhs_evals", 1)
                log.add("integrate.rhs_rows", math.prod(getattr(s, "shape", (1,))[:-1]))
        return counted

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer self time and calls, plus the counters, as name ->
        value. Every layer and counter is present, zero when unused."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        counts = dict.fromkeys(COUNTERS, 0)
        layer_of = [n.split(".", 1)[0] for n in self.names]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        fid_of = {n: i for i, n in enumerate(self.names)}
        eigen = {fid_of[n] for n in _EIGEN if n in fid_of}
        locate = fid_of.get("cone.cone_locate", -2)
        sampler = fid_of.get("sampling.sample_cone_pairs", -2)
        with self._logs_lock:
            logs = list(self._logs)
        for log in logs:
            for key, value in log.counts.items():
                if key == "linalg.eig_n_max":
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
            for fid, parent, dur, self_s in zip(log.fid, log.parent, log.dur, log.self_s):
                out[f"{layer_of[fid]}.self_s"] += self_s
                out[f"{layer_of[fid]}.calls"] += 1
                calls[fid] += 1
                busy[fid] += dur
                if fid == locate and parent == sampler:
                    counts["sampling.cone_tests"] += 1
                # one eigen-decomposition, however many entry points it passed
                if fid in eigen and parent not in eigen:
                    counts["linalg.eig_calls"] += 1
            counts["trace.spans"] += len(log.fid)
        for key, name in _SPAN_CALLS.items():
            counts[key] = calls[fid_of[name]] if name in fid_of else 0
        for key, name in _SPAN_TIME.items():
            counts[key] = busy[fid_of[name]] if name in fid_of else 0.0
        tests = counts["sampling.cone_tests"]
        counts["sampling.accept_ratio"] = counts["sampling.pairs"] / tests if tests else 0.0
        out.update(counts)
        return out


# -- counters ------------------------------------------------------------------

# counters that are the number of spans, or their summed duration, of one function
_SPAN_CALLS = {
    "certify.lmi_residuals": "certify.lmi_residual",
    "decouple.chang_solves": "decouple.solve_chang_lti",
    "systems.jacobian_evals": "systems.jacobians",
    "expressions.compile_calls": "expressions.compile_expr",
    "expressions.evaluate_calls": "expressions.evaluate",
}
_SPAN_TIME = {
    "decouple.chang_s": "decouple.solve_chang_lti",
    "integrate.csv_s": "integrate.write_trajectory_csv",
}

# The rest need the call's arguments, result or exception. A hook runs after
# the call and returns the (possibly wrapped) result; it must not keep the
# arguments.

def _wrap_rhs(rec, log, args, kwargs, result, error):
    return result if error is not None else rec.count_rhs(result)


def _csv(rec, log, args, kwargs, result, error):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if error is None and path is not None:
        log.add("integrate.csv_bytes", os.path.getsize(path))
    return result


def _probe(rec, log, args, kwargs, result, error):
    if error is None:
        log.add("analyze.classifications", result.get("total_classifications", 0))
        log.add("analyze.outside", result.get("outside", 0))
        log.add("analyze.boundary", result.get("boundary_warnings", 0))
    return result


def _pairs(rec, log, args, kwargs, result, error):
    if error is None:
        log.add("sampling.pairs", len(result))
    return result


def _eigen_size(rec, log, args, kwargs, result, error):
    S = args[0] if args else kwargs.get("S")
    n = getattr(S, "n", None) or (len(S) if S is not None else 0)
    log.counts["linalg.eig_n_max"] = max(log.counts.get("linalg.eig_n_max", 0), n)
    return result


def _chang(rec, log, args, kwargs, result, error):
    if error is not None and type(error).__name__ == "NoConvergence":
        log.add("decouple.chang_failures", 1)
    return result


_HOOKS = {
    "integrate.make_rhs": _wrap_rhs,
    "integrate.make_variational_rhs": _wrap_rhs,
    "integrate.write_trajectory_csv": _csv,
    "analyze.monotone_probe": _probe,
    "sampling.sample_cone_pairs": _pairs,
    "linalg.sym_eigvals": _eigen_size,
    "linalg.jacobi_eig": _eigen_size,
    "decouple.solve_chang_lti": _chang,
}
