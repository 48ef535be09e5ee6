"""The host's speed, timed beside the work it rescales.

On a small shared VM the speed of a vCPU drifts by up to 1.5x in spells of
seconds, and the two vCPUs drift apart from each other. A fixed pure-Python
slice timed in the same process, interleaved with the work, slows down with
it. Over 3 s windows the raw time of an allocation-heavy loop spread 0.29
(quartile distance over median), its ratio to slices interleaved with it
0.06, its ratio to slices timed before and after it 0.11, and its ratio to
slices timed at the same moment on the other vCPU 0.22.

So a pass runs a slice every SLICE_PERIOD_S of wall time, from a SIGALRM
handler that interrupts whatever the library is doing. Slice time is taken
out of the work's time, and each stretch of work is rescaled to a host on
which a slice takes REF_SLICE_S, by the slices timed during it (or, for a
stretch shorter than NEAREST slice periods, the NEAREST slices around it):

    reference seconds = (raw seconds - slice seconds) * REF_SLICE_S / mean slice

A change to relalg moves the work and not the slice, so it shows in full; a
change of host speed moves both and mostly cancels. Memory-heavy work
tracks the slice less closely than compute-heavy work.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left

SLICE_ITERS = 20_000
SLICE_PERIOD_S = 0.025
# A slice's median time on the 2-vCPU Xeon VM the benchmark was written on.
REF_SLICE_S = 0.0011
NEAREST = 16


def _slice() -> int:
    t = time.perf_counter_ns()
    acc = 0
    for i in range(SLICE_ITERS):
        acc += i & 7
    return time.perf_counter_ns() - t


class SpeedProbe:
    """Interleaves slices with the work of a pass and records each one."""

    def __init__(self) -> None:
        self.slice_ns = 0
        self.at = array("q")  # perf_counter_ns when each slice started
        self.took = array("q")  # and how long it ran

    def _record(self) -> None:
        self.at.append(time.perf_counter_ns())
        took = _slice()
        self.took.append(took)
        self.slice_ns += took

    def _on_alarm(self, signum, frame) -> None:
        self._record()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def work_ns(self) -> int:
        """A clock that stands still while a slice runs."""
        return time.perf_counter_ns() - self.slice_ns

    def run_slices(self, n: int) -> None:
        """Time n slices back to back, for work too short to interleave with."""
        for _ in range(n):
            self._record()

    @property
    def slices(self) -> int:
        return len(self.took)

    def mean_slice_s(self) -> float:
        return self.slice_ns / self.slices / 1e9

    def scale(self) -> float:
        """Factor from seconds on this host, over all the slices, to reference
        seconds."""
        return REF_SLICE_S / self.mean_slice_s()

    def scale_between(self, start_ns: int, end_ns: int) -> float:
        """The same factor for work done between two perf_counter_ns readings."""
        lo, hi = bisect_left(self.at, start_ns), bisect_left(self.at, end_ns)
        if hi - lo < NEAREST:
            hi = min(len(self.at), max((lo + hi) // 2 + NEAREST // 2, NEAREST))
            lo = max(0, hi - NEAREST)
        return REF_SLICE_S * (hi - lo) * 1e9 / sum(self.took[lo:hi])
