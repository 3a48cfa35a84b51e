"""The host's pace, read from a fixed reference kernel while each task runs.

The host is shared: its speed flips between a fast and a slow phase (1.7x
apart or more) every few seconds to minutes, in CPU time as much as in wall
time, so a raw time measures the neighbours as much as the program.  The
benchmark therefore reads the pace all through each timed span: a timer
signal interrupts it every INTERVAL_S and runs a small fixed kernel, and the
kernel's speed relative to the reference, REF_S over its time, is sampled
once before the span, at every interrupt and once after.  The span's time is
its wall time less the interrupts' own time, multiplied by the mean of those
speeds; so a time the benchmark reports reads as seconds at one fixed
reference pace, and a span that straddles a phase flip is weighted by how
long it spent in each.  The kernel is the benchmark's own pure-Python code:
it never calls the package, so no change to the package moves it, and it
needs no import, so it can time an interpreter's imports too.  run.py pins
the run and its children to one CPU, so that while a cli child works the
interrupts read the pace of the CPU it works on, taking turns with it
rather than competing with it from the other CPU.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter
from typing import Callable

# The kernel's time in the fast phase of the reference host (2 vCPUs of a
# shared x86-64 host, Python 3.11): reported times read as seconds there.
REF_S = 7.0e-5
INTERVAL_S = 0.02

_DATA = [((i * 7919) % 101) / 13.0 + 0.5 for i in range(48)]


def kernel() -> float:
    """A fixed mix of what the interpreter does for the workloads: calls,
    float maths, list and dict traffic."""
    table: dict[int, float] = {}
    acc = 0.0
    for _ in range(2):
        for i, x in enumerate(_DATA):
            y = _DATA[i - 1]
            table[i % 5] = math.atan2(x, y) + math.sqrt(x * y)
            acc += max(table.values()) - min(x, y)
    return acc


class Meter:
    """Times calls at the reference pace.  After run(), `seconds` is the
    call's time at the reference pace, `raw_s` its wall time less the
    interrupts, and `speeds` the samples it was scaled by."""

    def __init__(self):
        self.seconds = self.raw_s = self._spent = 0.0
        self.speeds: list[float] = []
        for _ in range(20):  # warm the kernel up
            kernel()

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.speeds.append(REF_S / (t1 - t0))
        self._spent += perf_counter() - t0

    def run(self, fn: Callable[[], object]):
        """fn(), timed; its exception, if any, propagates after the timing is set."""
        self.speeds = []
        self._sample()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.raw_s = max(wall - self._spent, 0.0)
            self._sample()
            self.seconds = self.raw_s * statistics.fmean(self.speeds)
