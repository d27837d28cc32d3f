"""Host speed, sampled while a pass runs.

On a shared virtual machine (measured on 2 vCPUs of a 2.0 GHz Xeon) the
speed drifts by tens of percent within seconds, and CPU time drifts with
it.  A fixed pure-Python computation slows down in step with ``lapoly``:
timed repeatedly beside ``verify_triangulation(d=3)``, the ratio of the two
varied by about 1% where either alone varied by 25%.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

CALIBRATION_STEPS = 40  # about 1 ms per sample on a 2 GHz Xeon
CALIBRATION_INTERVAL_S = 0.05
CALIBRATION_BRACKET = 3
_CALIBRATION_MATRIX = [[(7 * i + 3 * j * j + 1) % 11 - 5 for j in range(6)] for i in range(6)]


def _bareiss(rows):
    a = [list(r) for r in rows]
    n = len(a)
    prev, sign = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _calibration_kernel():
    total = Fraction(0)
    for i in range(CALIBRATION_STEPS):
        total += Fraction(_bareiss(_CALIBRATION_MATRIX), 7 + i)
    return total


class HostSpeed:
    """Context manager that samples the host's speed during a pass.

    Every CALIBRATION_INTERVAL_S a SIGALRM handler times the calibration
    kernel (integer determinants and Fraction sums, the arithmetic
    ``lapoly`` does) between two bytecodes of the running pass; a few more
    samples are taken just before and after.  ``seconds`` is the mean
    sample: the pass's time divided by it does not drift with the host.
    ``inside_s`` is the time the handler took during the pass, which the
    caller subtracts from the pass's time; ``clock`` leaves it out too.
    """

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0

    def _sample(self):
        start = time.perf_counter()
        _calibration_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, _signum, _frame):
        self.inside_s += self._sample()

    def __enter__(self):
        for _ in range(CALIBRATION_BRACKET):
            self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(CALIBRATION_BRACKET):
            self._sample()

    def clock(self):
        """Seconds, not counting the samples taken during the pass."""
        return time.perf_counter() - self.inside_s

    @property
    def seconds(self):
        return sum(self.samples) / len(self.samples)
