"""The machine's speed, sampled while a pass runs.

On a shared machine the same pass can take twice as long when other work
runs on the sibling CPU. A timer signal interrupts the pass every
INTERVAL seconds of wall time and times a fixed pure-Python kernel; the
ratio REF_SECONDS over the kernel's time is the machine's speed at that
moment. A pass's wall time times the mean speed is its time on an
unloaded machine, which is much steadier from run to run than the wall
time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL = 0.05
# Time of _kernel on a 2-core Xeon VM at its quietest (1st percentile
# of 2000 runs, CPython 3.11). It only sets the unit of the rescaled times.
REF_SECONDS = 0.0007


def _kernel() -> int:
    """Tuples, dicts, frozensets and a keyed sort: the operations bplab spends time on."""
    counts: dict[tuple[int, int], int] = {}
    sets = []
    for i in range(1200):
        counts[i, i & 7] = counts.get((i - 1, (i - 1) & 7), 0) + 1
        sets.append(frozenset((i & 15, i & 3)))
    ordered = sorted(sets[:200], key=lambda x: tuple(sorted(x)))
    return len(counts) + len(ordered)


class SpeedSampler:
    """Context manager: samples the kernel's time every INTERVAL seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.seconds = 0.0  # time spent in the sampler itself, to leave out of timings

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.seconds += dt

    def clock(self) -> float:
        """perf_counter() without the time spent sampling."""
        return perf_counter() - self.seconds

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        """Mean sampled speed relative to an unloaded machine; 1.0 without samples."""
        if not self.samples:
            return 1.0
        return statistics.fmean(REF_SECONDS / x for x in self.samples)
