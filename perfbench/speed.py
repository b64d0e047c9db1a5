"""A clock that runs at the machine's current speed, for timings on a shared VM.

On the 2-vCPU VM the benchmark was tuned on, the same single-threaded Python
code runs at two or more speed levels up to 2x apart, switching every second
or so, and the share of time spent at each level changes from minute to
minute.  Wall time then swings 10-35% between runs of the same code, more than
any regression bound could allow.

SpeedClock measures the speed while the program runs: a SIGALRM timer every
TICK_S interrupts the main thread between bytecodes and times a fixed
pure-Python calibration kernel.  The clock advances by the wall time since the
last tick times REF_CAL_S / (median of the last WINDOW kernel times), so it
reads reference seconds: the seconds the same work takes while the kernel
takes REF_CAL_S.  The time spent inside the
handler is left out.  Only signal and time are imported, so that a setup
timing started after this import still pays for every module the program
imports.  The kernel is the benchmark's own code, not the
program's, so a change to the program cannot move it.  perfbench/README.md
has the measurements that chose the kernel.
"""
from __future__ import annotations

import signal
import time

# one kernel call per 150 reference microseconds: about the kernel's median
# time on the tuning VM, so reference and wall seconds are close there
REF_CAL_S = 150e-6
TICK_S = 0.025
WINDOW = 5


def _kernel() -> float:
    counts = {}
    acc = 0.0
    for i in range(1, 400):
        k = i % 37
        counts[k] = counts.get(k, 0) + i
        acc += i ** 0.5 * 1.5 / (k + 1)
    return acc + max(counts.values())


def _time_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedClock:
    """now() in reference seconds; start() before timing, stop() after."""

    def __init__(self):
        first = min(_time_kernel() for _ in range(3))
        self.recent = [first] * WINDOW
        self.ticks = 0
        self.handler_s = 0.0
        # (reference seconds so far, wall time they end at, current factor),
        # replaced as one object so now() never sees half an update
        self.state = (0.0, time.perf_counter(), REF_CAL_S / first)

    def _tick(self, signum, frame):
        enter = time.perf_counter()
        ref, last, factor = self.state
        ref += (enter - last) * factor
        self.recent = self.recent[1:] + [_time_kernel()]
        factor = REF_CAL_S / sorted(self.recent)[WINDOW // 2]
        self.ticks += 1
        leave = time.perf_counter()
        self.handler_s += leave - enter
        self.state = (ref, leave, factor)

    def start(self) -> "SpeedClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # a tick already pending must not end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def now(self) -> float:
        while True:
            state = self.state
            wall = time.perf_counter()
            if state is self.state:  # no tick in between
                ref, last, factor = state
                return ref + (wall - last) * factor
