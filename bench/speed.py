"""A speed probe that takes the shared machine's changing pace out of the
timings.

On the machine this benchmark was built on, one fixed Python loop runs up
to 30% faster or slower for seconds to minutes at a time, whatever else
the process does.  Raw wall times of the same code then spread by more
than any useful regression bound.  The probe measures that pace while the
workload runs: every ``INTERVAL_S`` of process CPU time a ``SIGVTALRM``
handler (in-process; no thread) runs ``reference_work`` once, with the
cyclic garbage collector paused, and records when it ran and how long it
took.  A timed interval of the workload is then
reported in reference seconds:

    (wall time - probe time inside it) * REFERENCE_S / mean probe time

where the mean is over the probes that ran within ``PAD_S`` of the
interval, or over the probes of the surrounding pass when fewer than
``MIN_PROBES`` ran there.
``reference_work`` is benchmark code and calls nothing in sumgames, so no
change to the program can move it.
"""
from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.1
MIN_PROBES = 3
# Probes this close to a short interval still tell its pace.
PAD_S = 0.5
# The median time of one reference_work call (collector paused) on the
# machine the benchmark was defined on (2 vCPUs, Python 3.11.7): the scale
# of a reference second.
REFERENCE_S = 0.0017


def reference_work() -> int:
    """A fixed piece of pure-Python work shaped like the program's own:
    finite sums over frozenset blocks, keyed blake2b hashing, and many small
    short-lived objects."""
    sums: dict = {}
    for j in range(1, 10):
        new = {frozenset([j]): 1 << j}
        for block, value in sums.items():
            if max(block) < j:
                new[block | {j}] = value + (1 << j)
        sums.update(new)
    colors = {hashlib.blake2b(b"%d" % v, key=b"7", digest_size=8).digest()[0] % 3
              for v in list(sums.values())[:24]}
    sets = [frozenset((i, i + 1, i * 7 % 13)) for i in range(1500)]
    index = {s: i for i, s in enumerate(sets)}
    return len(colors) + sum(index[s] for s in sets[::3])


class SpeedProbe:
    """Context manager that samples the machine's pace while it is open."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.at = array("d")        # start of each probe (perf_counter)
        self.took = array("d")      # its duration

    def _fire(self, signum, frame):
        # The cyclic collector would make the probe pay for the program's
        # young objects, so it is off while the probe runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.at.append(start)
            self.took.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "SpeedProbe":
        reference_work()  # the first call pays one-off costs; keep it out
        self._previous = signal.signal(signal.SIGVTALRM, self._fire)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def _inside(self, start: float, end: float) -> array:
        return self.took[bisect_left(self.at, start):bisect_right(self.at, end)]

    def factor(self, start: float, end: float) -> float | None:
        """REFERENCE_S over the mean probe inside [start, end], or None if
        fewer than MIN_PROBES fell inside.  The mean, not the median,
        because a timed interval adds up its slow and fast stretches."""
        took = self._inside(start, end)
        if len(took) < MIN_PROBES:
            return None
        return REFERENCE_S / statistics.fmean(took)

    def reference_seconds(self, start: float, seconds: float, fallback: float) -> float:
        """A timed interval in reference seconds.  The pace is taken from
        the probes within ``PAD_S`` of the interval; ``fallback`` is the
        factor used when too few fell there."""
        end = start + seconds
        factor = self.factor(start - PAD_S, end + PAD_S) or fallback
        return (seconds - sum(self._inside(start, end))) * factor
