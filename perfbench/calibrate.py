"""Speed calibration for a CPU whose speed drifts under other tenants' load.

On a shared 2-vCPU VM the same pure-Python call can take 35 ms or 70 ms
of CPU time a few seconds apart (no steal time is reported: the vCPU
runs, only slower), and 30-second runs drift by 20-30 % over minutes.  A
run cannot average that away, so every time the benchmark reports is
divided by the machine's speed when it was taken:

    reported = measured * REF_S / (kernel() time around the measurement)

`kernel()` is a fixed pure-Python mix, independent of middleorder, that a
SIGALRM handler runs every INTERVAL_S seconds; its own time is subtracted
from the operation it interrupted.  REF_S is kernel()'s typical time on
the machine the benchmark was defined on (Intel Xeon vCPU at 2.0 GHz,
Python 3.11.7), so reported times read as seconds at that speed.
Changes to middleorder do not touch kernel(), so a slower or faster
library still shows one-for-one.
"""
import bisect
import gc
import signal
import statistics
import time

REF_S = 0.00065
INTERVAL_S = 0.05
WINDOW_S = 0.5
MIN_SAMPLES = 5


_POSITIONS = [(i * 7919) % 1009 for i in range(1000)]
_SMALL = {v: (v * 37) % 101 for v in range(1, 101)}
_MASKS = [sum(1 << i for i in range(k % 7, 3000, 11 + k % 5)) for k in range(64)]


class _Chain:
    """A memoized method recursion over bitmasks, shaped like the poset
    oracle's Moebius function."""

    def __init__(self):
        self.memo = {}

    def leq(self, i, j):
        return bool(_MASKS[i] >> j & 1)

    def value(self, i, depth):
        if depth == 0 or self.leq(i, depth):
            return 1
        key = (i, depth)
        if key not in self.memo:
            self.memo[key] = -self.value((i * 5 + 1) % 64, depth - 1) - self.value(i, depth - 1)
        return self.memo[key]


def kernel() -> int:
    """A fixed mix of the work middleorder does: generator loops over a
    list of 1000 (encode at large n) and over a small dict (encode at
    small n), inserts into a growing list (decode), a set-bit walk over a
    3000-bit mask and a memoized method recursion (the poset oracle)."""
    pos = _POSITIONS
    total = sum(sum(1 for j in range(i) if pos[j] > pos[i]) for i in range(974, 1000, 12))
    small = _SMALL
    total += sum(sum(1 for j in range(1, i) if small[j] > small[i]) for i in range(1, 50))
    word: list[int] = []
    for i in range(1, 400):
        word.insert(len(word) - (i * 7919) % i, i)
    mask = _MASKS[0]
    while mask:
        total += (mask & -mask).bit_length()
        mask &= mask - 1
    chain = _Chain()
    return total + word[0] + sum(chain.value(i, 4) for i in range(32))


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Runs kernel() every INTERVAL_S seconds from a SIGALRM handler while
    entered, and MIN_SAMPLES times on entry, on exit and per burst();
    `stolen` is the total time the samples took.

    The garbage collector is off during a sample, so that a collection of
    the library's heap which the sample's allocations would start runs
    later, in the library's time, and neither leaves it nor enters the
    kernel's time."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum=None, frame=None):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)
        self.stolen += time.perf_counter() - start

    def __enter__(self):
        self.burst()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)
        self.burst()

    def pause(self):
        """Stop the periodic samples (while a child process does the work)."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def burst(self):
        for _ in range(MIN_SAMPLES):
            self._tick()

    def slowdown(self, start: float, end: float) -> float:
        """Kernel time around [start, end], over REF_S.

        An operation longer than the window integrates the speed over its
        span, so it takes the mean; a shorter one takes the median of the
        samples around it, which resists a single disturbed sample.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        average = statistics.mean if end - start > WINDOW_S else statistics.median
        return average(self.seconds[lo:hi]) / REF_S
