"""Core-speed reference: a fixed slice of work, timed before every
operation, that scales the benchmark's times to a core of constant speed.

The cores this benchmark runs on change speed by up to half, from one
millisecond to the next and in phases of minutes, because their physical
cores are shared.  CPU time tracks wall time through it, so the slowdown is
in the core itself and no clock of the process can see past it.  So the
speedometer times the slice before every operation and after the last one,
on the same core, and, from a timer signal, every TICK_S inside a long
operation.  It scales an operation's time, less the time of the samples
inside it, by

    REFERENCE_SLICE_S / (mean slice time of the samples from just before to just after it)

which gives the time it would have taken on a core that runs the slice in
``REFERENCE_SLICE_S``.  The slice uses no library code, so a change to the
program moves the operations and not the reference.

Where every operation is a fresh CLI process (``cli_oneshot``), the
child samples itself through ``launch.py`` and hands its samples back.

    python3 bench/speed.py          # prints this core's slice time
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import time

# the slice's time on the reference core (a 2 GHz Xeon guest, uncontended);
# only a scale, which cancels when two runs are compared
REFERENCE_SLICE_S = 1.0e-3
# a sample between operations is the mean of 2 to 20 slices, taking about
# 2% of the time of the operation before it; inside one, a single slice
MIN_SLICES, MAX_SLICES, SAMPLE_SHARE = 2, 20, 0.02
TICK_S = 0.05


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


_POINTS = [_Point((i * 7919) % 1009, float(i)) for i in range(512)]
_COUNTS = dict.fromkeys(range(256), 0)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) % 1009


def reference_slice() -> int:
    """Interpreter arithmetic, dict updates, attribute reads and writes and
    calls: the kinds of work the library's Python layers do.  It allocates
    no container, so it never starts the garbage collector, and it takes
    the same time whatever the program around it holds in memory."""
    counts, points, total = _COUNTS, _POINTS, 0
    for i in range(4000):
        k = i & 255
        counts[k] = (counts[k] + i) & 0xFFFF
        p = points[i & 511]
        p.value = p.value * 0.5 + k
        total += _mix(p.key, k)
    return total


def pin_to_one_core() -> int:
    """Runs this process, and every child it starts, on one core, so that
    the slices time the core the operations run on.  Returns that core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Speedometer:
    """Samples of the mean slice time, (clock, seconds), in time order."""

    def __init__(self, clock=time.perf_counter, slice_fn=reference_slice):
        self.clock, self.slice_fn = clock, slice_fn
        self.times, self.slices = [], []
        self.ticked_s = 0.0  # time spent in samples taken from the timer
        self._busy = False

    def sample(self, n: int = MIN_SLICES) -> float:
        """The mean time of n slices."""
        self._busy = True
        try:
            t0 = self.clock()
            for _ in range(n):
                self.slice_fn()
            t1 = self.clock()
        finally:
            self._busy = False
        self.times.append(t1)
        self.slices.append((t1 - t0) / n)
        return self.slices[-1]

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            t0 = self.clock()
            self.sample(1)
            self.ticked_s += self.clock() - t0

    @contextlib.contextmanager
    def ticking(self):
        """Within the block, a one-slice sample every TICK_S of wall time,
        taken by a SIGALRM handler wherever the main thread is."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def sample_after(self, op_s: float) -> float:
        """A sample sized by the time of the operation just before it."""
        n = round(SAMPLE_SHARE * op_s / REFERENCE_SLICE_S)
        return self.sample(min(MAX_SLICES, max(MIN_SLICES, n)))

    def absorb(self, report: dict) -> None:
        """Takes the samples of a child process on the same core, which
        all come after this meter's own (perf_counter is one clock for all
        processes)."""
        self.times += report["times"]
        self.slices += report["slices"]
        self.ticked_s += report["ticked_s"]

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_SLICE_S over the mean slice time of the samples from
        the last one before `start` to the first one after `end`."""
        i = max(0, bisect.bisect_right(self.times, start) - 1)
        j = bisect.bisect_left(self.times, end)
        return REFERENCE_SLICE_S / statistics.fmean(self.slices[i:j + 1])

    def on_reference(self, start: float, end: float) -> float:
        """The time from `start` to `end` on the reference core, by the
        median slice time of the samples in between (or of the last one)."""
        i, j = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        slices = self.slices[i:j] or self.slices[-1:]
        return (end - start) * REFERENCE_SLICE_S / statistics.median(slices)

    def timed(self, fn):
        """(result, measured seconds, adjusted seconds) of fn(), with a
        sample of the largest size on each side of it and the timer's
        inside it, whose time is taken out."""
        self.sample(MAX_SLICES)
        ticked0 = self.ticked_s
        with self.ticking():
            t0 = self.clock()
            result = fn()
            t1 = self.clock()
        measured = t1 - t0 - (self.ticked_s - ticked0)
        self.sample(MAX_SLICES)
        return result, measured, measured * self.factor(t0, t1)


if __name__ == "__main__":
    pin_to_one_core()
    meter = Speedometer()
    for _ in range(50):
        meter.sample()
    print(f"slice: min {min(meter.slices) * 1e3:.3f} ms, "
          f"median {statistics.median(meter.slices) * 1e3:.3f} ms; "
          f"reference {REFERENCE_SLICE_S * 1e3:.3f} ms")
