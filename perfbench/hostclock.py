"""Wall time corrected for the speed of a shared host.

On a host whose cores are shared with other tenants, the same pure-CPU work
runs up to ~45% slower whenever a neighbour is busy, and these slow spells
last from a second to over a minute.  A median over a 30 s run cannot
average them out.  ``HostClock`` measures the host's speed while the
program runs: a timer signal interrupts the pass every ``PERIOD`` seconds
and times ``probe`` on the same core, in the same thread.  The probe mixes
what ``relmetric``'s time is made of (small numpy calls, an interpreted
loop, dict updates), so a busy neighbour slows it by the same share (on a
2-core KVM guest, log-log slope 1.05 and correlation 0.96 against
``small-scenes`` over 5 s windows; a bare loop had slope 0.78 and 0.67).
It is independent of ``relmetric``, so a faster or slower program never
changes it.

``elapsed(a, b)`` is the time the program spent between ``a`` and ``b``,
with the probes' own time taken out, and every stretch between two probes
scaled by ``NOMINAL_PROBE_S / probe time`` (the probe time is the median of
the five probes around the stretch).  On a host where the probe takes
``NOMINAL_PROBE_S`` this is the wall time; on a slower or faster host it is
the wall time that host would give at the nominal speed.  ``raw(a, b)`` is
the plain wall time minus the probes.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD = 0.05
# about the probe's median time on a shared 2-core KVM guest (Xeon,
# Python 3.11, numpy 2.4); a fixed constant, so runs on different days
# are comparable
NOMINAL_PROBE_S = 0.00025


def probe() -> None:
    a = np.arange(16.0)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    s = 0
    for i in range(1500):
        s += i * i
    counts: dict[int, int] = {}
    for i in range(400):
        key = (i * 7919) % 1000
        counts[key] = counts.get(key, 0) + i


class HostClock:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factors: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        n = len(durations)
        self._factors = [
            NOMINAL_PROBE_S / statistics.median(durations[max(0, i - 2):i + 3])
            for i in range(n)
        ]

    def _integrate(self, a: float, b: float, scaled: bool) -> float:
        """Time in [a, b] outside the probes, each stretch after probe i
        weighted by its factor (before the first probe: the first factor)."""
        starts, ends, factors = self.starts, self.ends, self._factors
        if not starts:
            return b - a
        total = 0.0
        i = bisect.bisect_right(starts, a) - 1  # last probe starting at or before a
        t = a
        while t < b:
            nxt = starts[i + 1] if i + 1 < len(starts) else b
            seg_end = min(nxt, b)
            lo = max(t, ends[i]) if i >= 0 else t
            if seg_end > lo:
                f = factors[max(i, 0)] if scaled else 1.0
                total += (seg_end - lo) * f
            t = seg_end
            i += 1
        return total

    def elapsed(self, a: float, b: float) -> float:
        return self._integrate(a, b, scaled=True)

    def raw(self, a: float, b: float) -> float:
        return self._integrate(a, b, scaled=False)
