"""Machine-speed calibration for the end-to-end timings.

On a shared host the same job can take up to twice as long from one
minute to the next, because other tenants share the cores.  Within a
single process the slowdown appears as a fast and a slow state that switch
many times a second, and the share of time spent in the slow state drifts
over tens of seconds.  Run-to-run medians of raw wall time therefore drift
by 20-30 %.

The benchmark measures the drift with calibration work that shares no code
with pulsepair, and rescales every end-to-end time to read as seconds on
the reference machine at its typical speed.  Two kinds of work are timed,
because in-process Python and process start-up slow down by different
amounts on this host:

* In-process jobs: a SIGALRM timer runs a fixed kernel (a Python loop of
  small numpy operations, like the package's hot path) every
  SAMPLE_INTERVAL_S.  Kernel time inside a job is subtracted from the job,
  and the job's time is multiplied by REFERENCE_KERNEL_S / the mean time
  of the kernel samples within SAMPLE_MARGIN_S of the job.  Rescaling
  each job by the speed around it, rather than the run by its mean speed,
  keeps the median job time from jumping when the slow share of a run
  crosses one half.
* Child processes (set-up probes and CLI jobs): a calibration child,
  ``python -c "import numpy"``, runs just before each one.  A child's time
  is multiplied by REFERENCE_CHILD_S / the mean time of the calibration
  children within CHILD_WINDOW places of its own, which follows the drift
  more closely than one calibration child and less noisily than all.
"""

import gc
import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# Typical times of one kernel call and of one calibration child on the
# 2-core reference machine (Intel Xeon, Python 3.11, numpy 2.4, one BLAS
# thread).  Any fixed values would do; these keep rescaled times close to
# the wall times seen there.
REFERENCE_KERNEL_S = 0.0014
REFERENCE_CHILD_S = 0.20
KERNEL_ITERATIONS = 100
SAMPLE_INTERVAL_S = 0.05
SAMPLE_MARGIN_S = 0.25
CALIBRATION_CHILD = ("-c", "import numpy")
CHILD_WINDOW = 2

_A = np.arange(9.0).reshape(3, 3) / 10.0


def kernel(iterations=KERNEL_ITERATIONS) -> float:
    acc = 0.0
    for i in range(iterations):
        b = _A @ _A.T + math.sin(i)
        acc += float(np.abs(np.einsum("ij,jk->ik", b, _A)).max())
        acc += sum(float(x) for x in b[0])
    return acc


class Speedometer:
    """Samples the kernel inside a process and turns it into a rescaling factor."""

    def __init__(self):
        self._intervals = []
        self._previous = None

    def sample(self):
        # A cyclic-GC pass over the program's heap must not land in a sample:
        # it would be taken out of the job and would lower the factor too.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self._intervals.append((start, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def start_timer(self):
        """Sample every SAMPLE_INTERVAL_S of wall time until stop_timer."""
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def within(self, start, end) -> float:
        """Seconds of sampling that fell inside [start, end]."""
        return sum(e - s for s, e in self._intervals if s >= start and e <= end)

    def factor_near(self, start, end) -> float:
        """Rescaling factor for an in-process job that ran over [start, end]."""
        low, high = start - SAMPLE_MARGIN_S, end + SAMPLE_MARGIN_S
        durations = [e - s for s, e in self._intervals]
        near = [e - s for s, e in self._intervals if s >= low and e <= high]
        return REFERENCE_KERNEL_S / statistics.fmean(near or durations)



def time_calibration_child(env) -> float:
    """Wall seconds of one calibration child, run to completion."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *CALIBRATION_CHILD], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def child_factors(calibrations):
    """Rescaling factor of each child, from the calibration children near it."""
    factors = []
    for i in range(len(calibrations)):
        near = calibrations[max(0, i - CHILD_WINDOW) : i + CHILD_WINDOW + 1]
        factors.append(REFERENCE_CHILD_S / statistics.fmean(near))
    return factors
