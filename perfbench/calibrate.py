"""Machine-speed calibration.

The benchmark's machine is shared, and the load of other tenants changes the
speed of the same code by tens of percent over periods of seconds to
minutes.  The process's CPU time moves with its wall time, so the slowdown
is contention inside the core (caches, a busy sibling thread), not time
spent off the CPU.  A fixed kernel is timed before the first job of a pass
and after every job, and each job's time is scaled by the kernel's
reference time over the mean kernel time before and after the job: seconds
at the speed the machine had when the reference was measured.  Raw times
stay in the run record.

Interpreter-bound, compute-bound and memory-bound code slow down
differently under the same load, so each stage has the kernel whose
slowdown tracks its own:

- ``interp`` (campaign, extremal): Python function calls with small-object
  allocation and small numpy random draws, the per-sample and
  per-evaluation work of those workloads.  Over 4 minutes of alternating a
  certify job with candidate kernels, the spread of 15-second medians of
  the job-over-kernel time ratio was 1-2% with these parts, 3% with
  ``mixed`` and 17% unscaled.  Random lookups into a dict larger than L2
  tracked the job as well within a process, but their speed relative to
  the job moved by up to 25% from one process to the next (memory layout),
  so they are left out.
- ``mixed`` (tree, and the set-up of every workload): equal thirds of dict
  and tuple churn with small numpy calls, a scipy cdist (dense distance
  tables) and a pass over an array four times the L2 size (the large tree
  tables).  Scaling by it cut the quartile spread of tree's wall_s over ten
  runs from 13-15% to 2%.  Each set-up probe is a child process that
  leaves the caches cold for the kernel timed after it; over six
  alternating sets of set-up probes the spread of the set-up median was 1%
  scaled by this kernel and 3% scaled by ``interp``.  The array adds a
  fixed 8 MB to the process's peak RSS.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# median kernel time on the reference machine (2-core Xeon VM)
REFERENCE_S = {"interp": 0.005, "mixed": 0.02}
STAGE_KERNEL = {"campaign": "interp", "extremal": "interp", "tree": "mixed",
                "setup": "mixed"}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def _interp_parts():
    rng = np.random.default_rng(0)

    def step(x, y):
        return x * y + 1.0

    def calls():
        s = 0.0
        for i in range(16000):
            s = step(i, 0.5)
            _Point(i, s)

    def draws():
        for _ in range(1000):
            rng.normal(size=3)

    return calls, draws


def _mixed_parts():
    from scipy.spatial.distance import cdist
    row = np.linspace(0.0, 1.0, 128)
    points = np.random.default_rng(0).random((235, 235))
    array = np.linspace(0.0, 1.0, 1 << 20)      # 8 MB

    def churn():
        table = {}
        for i in range(9600):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0.0) + math.sqrt(i)
        for _ in range(240):
            float(np.max(np.abs(row[:64] - row[64:])))

    def distances():
        float(cdist(points, points).max())

    def sweep():
        for _ in range(7):
            float(array.sum())
            float(array.max())

    return churn, distances, sweep


_PARTS = {"interp": _interp_parts, "mixed": _mixed_parts}
_kernel = "mixed"
_parts = None


def select(stage: str) -> None:
    """Use the kernel that tracks `stage`, a workload's jobs or the set-up,
    from now on."""
    global _kernel, _parts
    _kernel, _parts = STAGE_KERNEL[stage], None


def reference_s() -> float:
    return REFERENCE_S[_kernel]


def kernel_seconds() -> float:
    """Time one run of the selected calibration kernel."""
    global _parts
    if _parts is None:
        _parts = _PARTS[_kernel]()
    start = perf_counter()
    for part in _parts:
        part()
    return perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at reference speed, given the kernel times around it."""
    return seconds * reference_s() / ((before + after) / 2)
