"""Machine-speed samples, so timings can be read at a reference speed.

A shared host's speed drifts: the same pure-Python loop took 11 ms and
17 ms a few minutes apart on the 2-CPU machine the benchmark was written
on, in phases of seconds to minutes, and every timing of the program moved
with it. The worker therefore runs a fixed reference kernel in short bursts
between operations (never inside one), and run.py scales each operation's
wall time by REFERENCE_KERNEL_S over the kernel's median time in the bursts
on either side of it. A change to the program moves its wall time and not
the kernel's, so it shows in the scaled figure; a slow phase of the host
moves both and cancels. A workload whose program sets `speed_scaled =
False` (`paper`) runs no bursts and is timed in wall time.

numpy is imported by the kernel's first call, not by this module, so a
worker that imports this module does not move numpy's import out of the
set-up it times.
"""

import bisect
import statistics
import time

# The kernel's median time on the machine the benchmark was written on, in
# its fast phases. A scaled timing is the wall time on a machine on which
# the kernel takes this long.
REFERENCE_KERNEL_S = 0.003

BURST_EVERY_S = 0.5   # a burst is due once this long has passed since the last
BURST_SHARE = 0.1     # and lasts this share of the time since the last one
BURST_MIN_S = 0.05
BURST_MIN_REPS = 5

_data = None


def _kernel_data():
    global _data
    if _data is None:
        import numpy as np
        sym = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        _data = (np, np.linspace(-1.0, 1.0, 600).reshape(200, 3), sym + sym.T)
    return _data


def reference_kernel():
    """Fixed work of the kinds the program does, about a millisecond each
    on a fast machine: interpreted Python arithmetic, elementwise passes
    over 200 states, and small symmetric eigenproblems. In equal shares
    the kernel's time moved with the program's by a factor of 0.99 on
    `variational` and 1.03 on `lmi-sweep` across the host's fast and slow
    phases; each part alone moved between 0.6 and 1.3 times as much."""
    np, rows, sym = _kernel_data()
    s = 0
    for i in range(17000):
        s += i * i
    for _ in range(330):
        rows = np.tanh(rows) * 0.9 + 0.05
    for _ in range(120):
        np.linalg.eigvalsh(sym)
    return s


class SpeedProbe:
    """Bursts of the reference kernel, as [start, end, median kernel s]."""

    def __init__(self):
        self.bursts = []

    def burst(self, seconds):
        start = time.perf_counter()
        reps = []
        while True:
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            reps.append(t1 - t0)
            if t1 - start >= seconds and len(reps) >= BURST_MIN_REPS:
                break
        self.bursts.append([start, t1, statistics.median(reps)])

    def between_ops(self, force=False):
        """Run a burst if one is due: about a tenth of the run, spread out."""
        since = time.perf_counter() - self.bursts[-1][1] if self.bursts else BURST_EVERY_S
        if force or since >= BURST_EVERY_S:
            self.burst(max(BURST_MIN_S, BURST_SHARE * since))


def scale_ops(spans, bursts):
    """Scale factor per operation, from its [start, end] and the bursts:
    REFERENCE_KERNEL_S over the mean kernel time of the last burst before
    it and the first burst after it."""
    ends = [b[1] for b in bursts]
    starts = [b[0] for b in bursts]
    factors = []
    for start, end in spans:
        before = bursts[max(0, bisect.bisect_right(ends, start) - 1)][2]
        after = bursts[min(len(bursts) - 1, bisect.bisect_left(starts, end))][2]
        factors.append(REFERENCE_KERNEL_S / (0.5 * (before + after)))
    return factors
