"""A speed clock: wall time converted to reference time.

On a virtual CPU that shares a physical core with other tenants, the same
work runs up to about twice as slowly whenever the other tenants are busy,
in episodes of a second or so and in drifts over minutes that no process
here controls. Raw wall times then move by a quarter from run to run. The
speed clock removes that: every 10 ms a timer signal runs a fixed probe loop
and records how long it took. A probe that took k times PROBE_REFERENCE_S
marks the 10 ms after it as running at 1/k of the reference speed, so a wall
interval [a, b] is worth

    integral from a to b of dt / k(t)

reference seconds: the time the interval would have taken on a CPU that
runs the probe loop in PROBE_REFERENCE_S, about what an unshared core of a
2-core x86-64 cloud VM with CPython 3.11 takes. The probe runs in the measuring process
itself, or, for work in a child process, in the parent pinned to the
child's CPU.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.01
PROBE_LOOP = 200
PROBE_REFERENCE_S = 5e-6


def pin_to_one_cpu() -> set[int]:
    """Pin this process (and children it starts) to one CPU; return the old set."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return cpus


class SpeedClock:
    """Records probe durations while running; converts intervals afterwards."""

    def __init__(self):
        self._times: list[float] = []
        self._durations: list[float] = []
        self._cumulative = None

    def _probe(self, signum, frame) -> None:
        # The first pass brings the loop back into the caches, which a child
        # process running on this CPU has just used, so that only the timed
        # second pass measures the CPU's speed.
        for _ in range(2):
            start = time.perf_counter()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i
        self._times.append(start)
        self._durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference(self, starts, ends) -> np.ndarray:
        """Reference seconds of each wall interval [starts[i], ends[i]]."""
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        count = len(self._durations)  # the handler appends a time first
        if count < 3:
            return ends - starts
        if self._cumulative is None or len(self._cumulative) != count:
            times = np.asarray(self._times[:count])
            durations = np.asarray(self._durations[:count])
            # A probe can be hit by an interrupt of its own; the median of
            # three neighbours keeps one such probe from marking a slice slow.
            padded = np.concatenate(([durations[0]], durations, [durations[-1]]))
            smooth = np.median(np.stack((padded[:-2], padded[1:-1], padded[2:])), axis=0)
            self._rate = PROBE_REFERENCE_S / smooth
            self._cumulative = np.concatenate(([0.0], np.cumsum(np.diff(times) * self._rate[:-1])))
            self._probe_times = times
        return self._clock(ends) - self._clock(starts)

    def _clock(self, t: np.ndarray) -> np.ndarray:
        """Reference seconds from the first probe to each wall time t."""
        times = self._probe_times
        index = np.clip(np.searchsorted(times, t, side="right") - 1, 0, None)
        return self._cumulative[index] + (t - times[index]) * self._rate[index]
