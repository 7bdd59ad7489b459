"""Host-speed sampling, so that times can be scaled to a reference speed.

On a shared host the CPU speed seen by one process drifts by up to 2x over
seconds to minutes, and the drift is not shared between the host's cores.
``HostSpeed`` therefore samples in the measured process itself: every
``INTERVAL_S`` of wall time a SIGALRM handler runs a fixed computation from
``reference.py`` (an exact minor scan of about 1 ms) between two bytecodes
of whatever runs. The scan is timed in thread CPU time, so a sample does
not grow when other processes (search workers, say) keep the main thread
waiting for a core; ``yardstick_check.py`` measures how much the program's
own state moves the samples.

The wall time spent in the handler is recorded with its position, so
``handler_s`` takes it out of any measured interval exactly, and
``scale(t0, t1)`` turns the samples taken in an interval into the factor
that maps the interval's time to the time it would take at the reference
speed (one sample taking ``REFERENCE_SAMPLE_S``).
"""

import bisect
import gc
import random
import signal
import time
from array import array

import reference as ref

INTERVAL_S = 0.04
REFERENCE_SAMPLE_S = 0.001
# The fewest samples a factor is taken over; a short interval borrows the
# samples just around it, so scale it once those have been taken.
MIN_SAMPLES = 5

_MATRIX = ref.random_network(random.Random(1), 4, 5)


def sample_once():
    """Thread CPU seconds of one reference computation."""
    t = time.thread_time()
    ref.tu_violation(_MATRIX)
    return time.thread_time() - t


class HostSpeed:
    def __init__(self):
        self.at = array("d")      # perf_counter() when each handler call began
        self.spent = array("d")   # wall seconds of each handler call
        self.cpu = array("d")     # thread CPU seconds of each timed sample
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # a signal that came during a slow sample
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        try:
            self.cpu.append(sample_once())
        finally:
            if collecting:
                gc.enable()
            self.at.append(t)
            self.spent.append(time.perf_counter() - t)
            self._busy = False

    def start(self):
        self._handler(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def handler_s(self, t0, t1):
        """Wall seconds the handler ran between perf_counter() times t0 and
        t1."""
        total = 0.0
        for i in range(max(bisect.bisect_left(self.at, t0) - 1, 0),
                       bisect.bisect_left(self.at, t1)):
            total += max(0.0, min(t1, self.at[i] + self.spent[i])
                         - max(t0, self.at[i]))
        return total

    def scale(self, t0, t1):
        """Reference-speed factor over the samples taken between t0 and t1,
        widened on both sides to at least MIN_SAMPLES samples."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        n = len(self.cpu)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            if hi < n:
                hi += 1
            if hi - lo < MIN_SAMPLES and lo > 0:
                lo -= 1
        window = self.cpu[lo:hi]
        return REFERENCE_SAMPLE_S * len(window) / sum(window)

    def timed(self, t0, t1):
        """(unscaled, scaled) seconds between t0 and t1, handler time taken
        out."""
        raw = t1 - t0 - self.handler_s(t0, t1)
        return raw, raw * self.scale(t0, t1)
