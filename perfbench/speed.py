"""Machine-speed reference for the end-to-end times.

On the shared 2-vCPU machine the benchmark was defined on, the speed of the
same work drifts by 15-20 % over minutes: ten 20 s runs of identical poisson
passes spread by 13 % (quartile distance over median), and longer runs did
not help, because the drift is slower than a run.  A fixed reference kernel
timed between ops drifts with it: over six minutes of poisson passes, the
ratio of pass time to interleaved kernel time spread by 2 % in 20 s windows,
against 17 % for the raw pass time.

So every end-to-end time is scaled by the local speed factor: the mean of
the last few reference times over their nominal value.  A time then reads
as the time on a machine whose reference takes the nominal time.  Ops run in
this process use an in-process kernel, timed warm right after an untimed
call, so the cache state an op leaves behind cannot move it.  The cli
workload's ops are process spawns, so it uses a spawn of the same
interpreter importing numpy: over 300 cli ops that tracked the op time to a
per-op correlation of 0.71, where the in-process kernel left the p90 of
110-op blocks spread by 10 %.  ``setup_s`` divides each ``import ritzfiber``
by the numpy import timed first in the same interpreter: over 30 spawns the
raw import spread by 19 %, the ratio by 5 %.  Neither reference runs ritzfiber code,
so no change to the package can move it.  The summary line of each run
keeps the raw values and the factors.
"""

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 2.0e-3      # the kernel's typical time where the benchmark was defined
SPAWN_NOMINAL_S = 0.15  # the spawn reference's typical time there
NUMPY_IMPORT_NOMINAL_S = 0.065  # and that of ``import numpy`` in a fresh interpreter
EVERY_S = 0.05          # timed op work between two samples
LOCAL_SAMPLES = 20      # kernel samples in the trailing mean of the local factor
LOCAL_SPAWNS = 2        # spawn samples in it (one spawn follows every cli op)
SPAWN_PROBE = "import numpy"

_A = np.random.default_rng(0).standard_normal((8, 8)) + 0j


def kernel():
    """Interpreter loop, Fraction/dict arithmetic, small numpy products and
    numpy scalar updates: the mix the workloads run."""
    s = 0
    for i in range(5000):
        s += i * i
    d = {}
    for i in range(300):
        key = (i % 17, i % 5)
        d[key] = d.get(key, Fraction(0)) + Fraction(i, 7)
    v = _A[:, 0].copy()
    for _ in range(60):
        v = _A @ v
        v /= np.linalg.norm(v)
        np.outer(v, v.conj())
    h = _A.copy()
    for _ in range(20):
        for i in range(7):
            h[i, i] = 0.999 * h[i, i] + h[i + 1, i] / (abs(h[i + 1, i]) + abs(h[i, i]) + 1.0)
    return s, d, v, h


def time_kernel():
    kernel()
    start = perf_counter()
    kernel()
    return perf_counter() - start


def time_spawn(env):
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_PROBE], env=env, check=True, timeout=120)
    return perf_counter() - start


class SpeedProbe:
    """Samples a reference after every ``EVERY_S`` of timed work."""

    def __init__(self, timer=time_kernel, nominal=NOMINAL_S, window=LOCAL_SAMPLES):
        self.samples = []
        self._timer = timer
        self._nominal = nominal
        self._window = window
        self._since = 0.0

    @classmethod
    def spawning(cls, env):
        """A probe whose reference is a fresh interpreter importing numpy."""
        return cls(lambda: time_spawn(env), SPAWN_NOMINAL_S, LOCAL_SPAWNS)

    def sample(self):
        self.samples.append(self._timer())

    def prime(self):
        """Enough samples for a first local factor."""
        for _ in range(max(1, self._window // 2)):
            self.sample()

    def after(self, seconds):
        self._since += seconds
        if self._since >= EVERY_S:
            self._since = 0.0
            self.sample()

    def factor(self):
        """Mean reference time over the nominal one (> 1 on a slow stretch)."""
        return statistics.mean(self.samples) / self._nominal

    def local_factor(self):
        """The factor over the last few samples."""
        return statistics.mean(self.samples[-self._window:]) / self._nominal
