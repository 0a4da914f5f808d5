"""The host's speed, sampled while the benchmark's operations run.

The benchmark's host is a virtual machine on a shared machine, and its speed
swings by up to 1.7x, within tens of milliseconds and over minutes, as other
tenants load the physical cores (CPU time tracks wall time, so process CPU
time does not see it).  To measure metacirc rather than the neighbours, a
worker pins itself to one CPU and, every ``PERIOD_S`` seconds of wall time, a
``SIGALRM`` handler runs a fixed pure-Python reference computation that does
not touch metacirc and records how long it took.  An operation's time in
reference units is the work it did in multiples of that computation: each
stretch of it between two samples, less the handler's time, divided by the
reference time around that stretch, and summed.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import time

# The host's speed changes within tens of milliseconds: on six passes of
# graph_queries, the per-query spread of reference units was 0.055 when
# sampling every 10 ms and smoothing over 3 samples, 0.10 to 0.13 when
# sampling every 50 ms, and 0.19 in milliseconds.
PERIOD_S = 0.01   # wall seconds between two samples
SMOOTH = 1        # a sample's reference time is the median of its 2 * SMOOTH + 1 neighbours
MIN_SAMPLES = 5   # taken before the first and after the last operation

_PERM = [(7 * i + 3) % 61 for i in range(61)]
_PERMS = [[(a * i + b) % 129 for i in range(129)] for a, b in ((2, 5), (4, 1), (8, 7), (16, 3))]
_SETS = [((i * 7) % 129, (i * 11 + 1) % 129, (i * 13 + 2) % 129, (i * 17 + 3) % 129)
         for i in range(40)]


def reference() -> int:
    """The fixed reference computation, about 0.3 to 0.6 ms: the kind of
    work metacirc does.  It composes and inverts a permutation of 61 points
    given as lists and hashes the results as tuples into a set, then maps
    4-subsets through permutations of 129 points, as ``candidate_orbits``
    does, and collects the sorted images in a set."""
    p = _PERM
    q = list(range(61))
    seen = set()
    for _ in range(60):
        q = [p[i] for i in q]
        inv = [0] * 61
        for i, x in enumerate(q):
            inv[x] = i
        seen.add(tuple(inv))
    orbit = set()
    for s in _SETS:
        for perm in _PERMS:
            orbit.add(tuple(sorted(perm[x] for x in s)))
    return len(seen) + len(orbit)


def median(values: list[float]) -> float:
    """The median, without importing ``statistics``, whose imports would add
    to the peak memory of the worker that the benchmark measures."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def pin_to_current_cpu() -> None:
    """Keep the process on the CPU it runs on now, so the samples and the
    operations run on the same (virtual) CPU, whose speed they share."""
    with open("/proc/self/stat") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


class Sampler:
    """Samples ``reference()`` every ``PERIOD_S`` wall seconds, from a
    ``SIGALRM`` handler, between ``start()`` and ``stop()``."""

    def __init__(self) -> None:
        self.starts: list[float] = []     # perf_counter() when a sample began
        self.seconds: list[float] = []    # how long its reference() took
        self.handler_ends: list[float] = []
        self.busy = False

    def sample(self, *_args) -> None:
        if self.busy:  # a signal that came while the handler ran
            return
        self.busy = True
        # no collection may start inside the handler: what it allocates it
        # frees before it returns, so the program's collections come when
        # they would without it
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(end - start)
        self.handler_ends.append(end)
        self.busy = False

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(MIN_SAMPLES):
            self.sample()

    def inside(self, start: float, end: float) -> float:
        """Seconds the handler spent inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(min(e, end) - s for s, e in zip(self.starts[lo:hi], self.handler_ends[lo:hi]))

    def local_reference_s(self, k: int) -> float:
        """The reference time around sample ``k``: the median of the samples
        within ``SMOOTH`` places of it, so one sample slowed by an interrupt
        does not count."""
        return median(self.seconds[max(0, k - SMOOTH):k + SMOOTH + 1])

    def in_reference_units(self, start: float, end: float) -> float:
        """The operation's time over [start, end], less the handler's, in
        multiples of the reference time.  Each stretch between two samples
        counts at the reference time around the sample that opens it, so an
        operation that runs through a change of host speed counts each part
        at its own speed."""
        k = bisect.bisect_right(self.starts, start) - 1   # the sample that opens the first stretch
        total = 0.0
        t = start
        while t < end:
            nxt = self.starts[k + 1] if k + 1 < len(self.starts) else end
            stop = min(nxt, end)
            busy = stop - t
            if k >= 0:
                busy -= max(0.0, min(self.handler_ends[k], stop) - max(self.starts[k], t))
            total += busy / self.local_reference_s(max(k, 0))
            t, k = stop, k + 1
        return total
