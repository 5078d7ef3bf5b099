"""The host's speed over a run, sampled with a fixed reference probe.

A small virtual machine shares its physical cores with other tenants, so
the same Python code runs up to twice as fast at one moment as a few
seconds later, and whole minutes run some 30 % slower than others.  Every
timed call pays that drift, and medians over the passes of one run cannot
remove what lasts longer than the run.

So the runner times a fixed probe, code that is no part of epsstream,
every ``PROBE_EVERY_S`` seconds (from a timer signal, so inside long calls
too), and scales each call by how fast the probes around it ran: a call's
normalised time is its wall time, less the probes run inside it, times
``REF_S`` over the median time of the probes run inside it, or of the
``NEAREST`` probes closest to it where fewer ran inside.  The probe mixes
the engine's kinds of work (Fraction sums, wide integer products, sorting,
dict lookups and a few float array operations), so the host's swings slow
it much as they slow the engine: on a 2-vCPU host this halved the spread
between repeated calls.  A probe takes about 1.7 ms.  A change to
epsstream moves the calls and not the probe, so it shows in full.

``REF_S`` is a fixed constant near the probe's median time on the 2-vCPU
host the benchmark was tuned on (Python 3.11, numpy 2.4), so normalised
times read as seconds there.  Raw wall times are recorded beside them.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import numpy as np

REF_S = 0.0017
PROBE_EVERY_S = 0.1
NEAREST = 7

_FLOATS = np.linspace(-3.0, 3.0, 256)


def _probe_work() -> int:
    acc = Fraction(0)
    mix = 0
    for i in range(1, 300):
        acc += Fraction(1, i)
        mix ^= hash((i, i * i))
    keys = sorted(((i * 2654435761) % 1000003, i) for i in range(300))
    table = dict(keys)
    total = sum(table[k] * (k << 40) for k, _ in keys)
    for lam in (0.5, 1.0, 1.5, 2.0):
        total += int(np.cosh(np.clip(lam * _FLOATS, -20.0, 20.0)).sum())
    return total + mix + acc.numerator % 7


class HostSpeed:
    """Probe times over a run, and the normalisation they give."""

    def __init__(self):
        self.starts: list = []  # probe start times, ascending
        self.ends: list = []  # probe end times, in the same order
        self.mids: list = []  # probe midpoints
        self.times: list = []  # probe durations
        self._probing = False

    def probe(self) -> None:
        if self._probing:  # a timer signal that arrived during a probe
            return
        self._probing = True
        # The collector would charge the probe for scanning the engine's heap.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            _probe_work()
            t1 = perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._probing = False
        self.starts.append(t0)
        self.ends.append(t1)
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)

    @contextmanager
    def sampling(self):
        """Probe every PROBE_EVERY_S seconds, from a timer signal, inside calls too.

        Long calls (a snapshot can take seconds) are probed while they run,
        and ``normalise`` takes the probes' own time back out of them.
        """
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median time of the probes run from start to end.

        Where fewer than NEAREST ran in that time, the nearest ones around
        it make up the number.
        """
        mids = self.mids
        lo, hi = bisect.bisect_left(mids, start), bisect.bisect_right(mids, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(mids)):
            if lo > 0 and (hi == len(mids) or start - mids[lo - 1] <= mids[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.median(self.times[lo:hi])

    def busy(self, start: float, dt: float) -> float:
        """A call's wall time less the probes that ran inside it."""
        end = start + dt
        for i in range(bisect.bisect_right(self.ends, start), len(self.starts)):
            if self.starts[i] >= end:
                break
            dt -= min(end, self.ends[i]) - max(start, self.starts[i])
        return dt

    def normalise(self, start: float, dt: float) -> float:
        """A call's busy time at the host speed REF_S stands for."""
        return self.busy(start, dt) * self.factor(start, start + dt)
