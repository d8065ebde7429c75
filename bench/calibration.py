"""Host-speed calibration of the timed figures.

On a shared virtual machine the speed at which this process runs swings
by up to 1.8x over tens of seconds with no steal time reported (most
likely other tenants' load on the host cores and caches), so a wall
time measured once says as much about the host as about specrig.  The runner therefore
interleaves a fixed reference task with the workload, outside its
timing, and reports each time scaled by ``REF_S / measured`` of that
task: the time the workload would have taken on a host running the
reference task in ``REF_S`` seconds.  The reference task uses numpy and
the interpreter but no specrig code, so a change to specrig moves the
scaled figures as much as the raw ones, while a slow spell of the host
moves both the workload and the reference and cancels.

Two reference tasks:

``kernel``  in-process Python dict arithmetic and small LAPACK
            determinants, the mix of the library workloads; run once
            for every ``KERNEL_EVERY_S`` of workload time
``child``   a fresh ``python -c "import numpy"``, the bulk of what a
            CLI command or a cold set-up costs; run once for every
            ``CHILD_EVERY_S`` of workload time, and next to every
            cold set-up

The task runs between operations, as many times as its cadence has
passed during the last ones, so that a long operation weighs as much in
the scale as the same time spent in short ones.  Each operation is
scaled by the task's runs within ``window`` seconds of workload time
around it, so that a slow spell scales the operations it slowed.

A workload need not slow down as much as the task does: over 100 s of
passes on the host named below, log pass time against log kernel time
has a slope of 0.88 for rigidity-grid but of about 0.6 for the
pure-Python bisection of exceptional-scan (correlation 0.92 for both).
The scale is raised to the workload's ``speed_exponent``: 1 for the
rigidity and CLI workloads, 0.8 for exceptional-scan, which over ten
20 s stretches of a 240 s recording of exceptional-scan gave the
steadiest figures (quartile spread 0.03 to 0.05 for each timed metric,
against 0.21 to 0.30 unscaled).
"""

import subprocess
import sys
import time

import numpy as np

# The reference speed: about each task's time in a fast spell of the
# 2-vCPU KVM guest on an Intel Xeon (family 6, model 207) host that the
# benchmark was tuned on.
KERNEL_REF_S = 0.67e-3
CHILD_REF_S = 0.145
KERNEL_EVERY_S = 0.05
CHILD_EVERY_S = 1.0
KERNEL_WINDOW_S = 3.0
CHILD_WINDOW_S = 8.0

_rng = np.random.default_rng(0)
_MATS = [_rng.normal(size=(k, k)) + 1j * _rng.normal(size=(k, k)) for k in range(2, 12)]
_POLY = {(i, j): complex(i, j) for i in range(6) for j in range(6)}


def kernel():
    """The in-process reference task; returns its wall time."""
    t0 = time.perf_counter()
    prod = {}
    for (a, b), c in _POLY.items():
        for (d, e), f in _POLY.items():
            key = (a + d, b + e)
            prod[key] = prod.get(key, 0j) + c * f
    for _ in range(4):
        for m in _MATS:
            np.linalg.det(m)
    return time.perf_counter() - t0


def child():
    """The child-process reference task; returns its wall time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


class Speed:
    """Runs of one reference task at a fixed cadence of workload time;
    ``scales`` turns measured times into ones at the reference speed."""

    def __init__(self, task, ref_s, every_s, window_s, exponent=1.0):
        self.task, self.ref_s, self.every_s, self.window_s = task, ref_s, every_s, window_s
        self.exponent = exponent
        self.clock, self._since = 0.0, 0.0
        self.marks, self.runs, self.seconds = [], [], []  # one entry per sampling

    @classmethod
    def for_workload(cls, cli, exponent):
        if cli:
            return cls(child, CHILD_REF_S, CHILD_EVERY_S, CHILD_WINDOW_S, exponent)
        return cls(kernel, KERNEL_REF_S, KERNEL_EVERY_S, KERNEL_WINDOW_S, exponent)

    def after(self, seconds):
        """Account ``seconds`` of workload time and sample when due;
        returns the wall time the sampling took."""
        self.clock += seconds
        self._since += seconds
        due = int(self._since / self.every_s)
        if not due:
            return 0.0
        self._since -= due * self.every_s
        t0 = time.perf_counter()
        self.seconds.append(sum(self.task() for _ in range(due)))
        self.marks.append(self.clock)
        self.runs.append(due)
        return time.perf_counter() - t0

    def scales(self, latencies):
        """The scale of each of the operations whose ``latencies`` were
        accounted in order: the reference time over the mean time of the
        task's runs within half a window of the operation's midpoint,
        or of all its runs if none is that close, to the exponent."""
        if not self.runs:
            self.after(self.every_s)
        ends = np.cumsum(latencies)
        mids = ends - np.asarray(latencies) / 2
        marks = np.asarray(self.marks)
        runs = np.concatenate(([0], np.cumsum(self.runs)))
        secs = np.concatenate(([0.0], np.cumsum(self.seconds)))
        lo = np.searchsorted(marks, mids - self.window_s / 2, side="left")
        hi = np.searchsorted(marks, mids + self.window_s / 2, side="right")
        near_runs, near_secs = runs[hi] - runs[lo], secs[hi] - secs[lo]
        whole = runs[-1] / secs[-1]
        speed = np.where(near_runs > 0, near_runs / np.maximum(near_secs, 1e-12), whole)
        return (self.ref_s * speed) ** self.exponent

    def total_runs(self):
        return int(sum(self.runs))
