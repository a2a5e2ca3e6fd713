"""Scale CPU times by the host's current speed, measured by a fixed kernel.

On a shared host a vCPU's speed drifts: by up to 1.7x for tens of seconds at
a time, longer than a run, and by ~15% from one half-second to the next.
Medians over a run's passes remove neither.  A ``Calibrator`` therefore
samples the speed while the program runs: a profiling timer interrupts the
benchmark every ``CAL_INTERVAL_S`` of CPU time, and the handler times a
short pure-Python kernel.  The samples are spread evenly over the CPU time
of the run, inside long calls too.  Their own CPU time is kept off the
clock the benchmark reads (``now``).  A timed interval is scaled by the mean
kernel time of the samples taken within ``CAL_WINDOW_S`` of it::

    scaled = raw * CAL_REF_S / level

so a figure reads as CPU seconds on a host whose kernel takes
``CAL_REF_S``.  The kernel never touches spdim, so a change to the program
moves the scaled figure as much as the raw one.
"""

import bisect
import gc
import random
import signal
import statistics
import time

CAL_REF_S = 0.0007       # the kernel's CPU time on the VM the benchmark was built on
CAL_INTERVAL_S = 0.05
CAL_WINDOW_S = 0.25

# The kernel's input: fixed, built once.
_RNG = random.Random(7)
_ROWS = [_RNG.getrandbits(300) for _ in range(100)]


def kernel(rows=_ROWS):
    "Big-int bit operations, tuple-keyed dict inserts and a keyed sort."
    acc = 0
    seen = {}
    for i, row in enumerate(rows):
        for j in range(0, 300, 15):
            if row >> j & 1:
                acc |= rows[j % len(rows)]
                seen[(i, j)] = acc.bit_count()
    return len(sorted(seen.items(), key=lambda kv: (kv[1], kv[0])))


class Calibrator:
    """Speed samples over the run, and the work clock they are kept off."""

    def __init__(self):
        self.times = []      # work clock at each sample
        self.levels = []     # kernel CPU time of each sample
        self._stolen = 0.0   # CPU time spent in samples
        self._previous = None
        for _ in range(20):  # warm-up, so the interpreter has specialised it
            kernel()

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame):
        start = time.thread_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
        finally:
            end = time.thread_time()
            if enabled:
                gc.enable()
            self.times.append(start - self._stolen)
            self.levels.append(end - start)
            self._stolen += time.thread_time() - start

    def now(self):
        """CPU time of this thread, which runs the program, less the samples.

        Not ``process_time``: while a profiling timer is armed, Linux updates
        the process clock only at scheduler ticks."""
        return time.thread_time() - self._stolen

    def scaled(self, start, end):
        "The work-clock interval [start, end] in seconds at reference speed."
        lo = bisect.bisect_left(self.times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CAL_WINDOW_S)
        if hi - lo < 3:      # too few samples close by: widen to the nearest
            lo, hi = max(0, lo - 3), hi + 3
        return (end - start) * CAL_REF_S / statistics.fmean(self.levels[lo:hi])

    def level_ms(self):
        "Median kernel time, for the info line."
        return statistics.median(self.levels) * 1e3
