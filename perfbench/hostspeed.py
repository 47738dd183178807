"""Host-speed normalization of measured times.

On a shared 2-vCPU VM the same fixed pure-Python loop takes 50 to 95 ms
from one second to the next, and whole 20 s runs of identical work differ
by 20 %.  While operations run, a timer therefore interrupts them every
``PROBE_EVERY_S`` to time a short fixed probe: no dxdy code, just the mix
dxdy spends its time on (small-object float arithmetic, Fraction
arithmetic, dict and string work).  An operation's time is its wall time
without the probes, each stretch between two probes scaled by
``REFERENCE_PROBE_S`` over the mean of those two probes.  Times are thus
seconds of a host that runs the probe in ``REFERENCE_PROBE_S``: a change to
dxdy moves them as it moves wall time, while a slow spell of the host slows
probe and operation alike and drops out.  The probe never runs dxdy code,
so no change to dxdy can move it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

#: probe time of the reference host speed (close to the median probe on
#: the 2-vCPU VM the reference figures come from, CPython 3.11)
REFERENCE_PROBE_S = 3.3e-4
#: interval of the probe timer
PROBE_EVERY_S = 0.0125
PROBE_ITERATIONS = 150


@dataclass(frozen=True)
class _Pair:
    u: float
    v: float


def probe() -> float:
    """Seconds the fixed probe work takes now.

    The collector is paused so that garbage the program left behind is not
    charged to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        z = _Pair(0.6, 0.7)
        w = _Pair(1.0, 0.0)
        exact = Fraction(0)
        table = {}
        for i in range(PROBE_ITERATIONS):
            w = _Pair(w.u * z.u - w.v * z.v + 0.25, w.u * z.v + w.v * z.u)
            table[i & 63] = f"{w.u:.6g}"
            if i % 24 == 0:
                exact = exact * Fraction(3, 5) + Fraction(i + 1, 7919)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """Probes taken on a timer while the block it manages runs.

    Operation intervals (start, end) measured inside the block are turned
    into times by ``raw`` and ``normalized`` once the block has ended.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []   # (start, end)

    def _probe(self, *_) -> None:
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter()))

    def __enter__(self) -> "Timeline":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _segments(self, starts: list[float], start: float, end: float):
        """(seconds, probe before, probe after) of the probe-free parts of
        the interval; ``starts`` are the probe start times."""
        i = bisect.bisect_right(starts, start) - 1   # last probe before
        t = start
        while True:
            p_start, p_end = self.probes[i + 1]
            before = self.probes[i][1] - self.probes[i][0]
            after = p_end - p_start
            yield max(0.0, min(end, p_start) - t), before, after
            if p_start >= end:
                return
            t = p_end
            i += 1

    def raw(self, intervals) -> list[float]:
        """Wall seconds of each interval, probes excluded."""
        starts = [s for s, _ in self.probes]
        return [sum(s for s, _, _ in self._segments(starts, a, b))
                for a, b in intervals]

    def normalized(self, intervals) -> list[float]:
        """Seconds of each interval at the reference host speed."""
        starts = [s for s, _ in self.probes]
        return [sum(s * 2.0 * REFERENCE_PROBE_S / (before + after)
                    for s, before, after in self._segments(starts, a, b))
                for a, b in intervals]
