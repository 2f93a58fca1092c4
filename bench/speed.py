"""Wall times expressed at a fixed reference speed of the machine.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed piece of pure-Python work can take twice as long for seconds or for
minutes at a time, in process CPU time as much as in wall time, so it is not
time lost to other processes.  A drift like that moves every wall time of a
run together and says nothing about vsp.

So a run also samples the machine's speed.  Between timed segments (one
`vsp build`, one `vsp verify`, one set-up interpreter) it runs a probe: a
fixed calibration workload that shares no code with vsp but is made of the
same kind of work, rational Gaussian elimination and breadth-first search
over dicts of lists.  Probes are spread evenly over the run's time, about
PROBE_SHARE of it.  The run's wall times are then scaled by
REFERENCE_S / (mean probe time): they become the times the run would have
taken at the speed at which a probe takes REFERENCE_S.  That is about the
usual speed of the 2-core shared host the baselines in README.md come from,
so there scaled times stay close to wall seconds.  A change to vsp moves the
scaled times as it moves wall times; a drift of the host's speed between
runs mostly cancels.  The runner reports the unscaled wall times too, as
information.

The timed segments are interleaved over the whole run, so the mean over all
of the run's probes matches them.  Scaling each segment by the few probes
next to it was tried and was noisier on `flow_router`, whose segments last
seconds: a gap's probes sample the speed at one moment only.
"""

from __future__ import annotations

import time
from collections import deque
from fractions import Fraction

# Mean probe time at the reference speed.  A constant: it must not be
# measured per run, or the scaling would cancel real changes as well.
REFERENCE_S = 0.0045
PROBE_SHARE = 0.05

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 + (i == j) * 7, 1 + (i + j) % 4) for j in range(6)]
           for i in range(6)]
_ADJ = {v: [(v * 7 + 3) % 400, (v * 13 + 1) % 400, (v + 1) % 400] for v in range(400)}


def _eliminate() -> Fraction:
    """Determinant of a fixed 6x6 rational matrix by Gaussian elimination."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(len(a)):
        p = next(r for r in range(c, len(a)) if a[r][c] != 0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _bfs(source: int) -> int:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in _ADJ[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return sum(dist.values())


def _calibration_work() -> int:
    total = 0
    for source in range(8):
        total += _eliminate().numerator % 97 + _bfs(source)
    return total


def probe() -> float:
    """Wall time of one run of the calibration workload."""
    t0 = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples the machine's speed at the gaps between timed segments.

    Call `gap()` between segments: it probes until probes have taken
    PROBE_SHARE of the time since the meter started, and at least MIN_PROBES
    in all."""

    MIN_PROBES = 20

    def __init__(self):
        self.start = time.perf_counter()
        self.probes: list[float] = []

    def gap(self) -> None:
        elapsed = time.perf_counter() - self.start
        while (len(self.probes) < self.MIN_PROBES
               or sum(self.probes) < PROBE_SHARE * elapsed):
            self.probes.append(probe())

    def factor(self) -> float:
        """Multiply a wall time of this run by this to scale it to the
        reference speed."""
        return REFERENCE_S * len(self.probes) / sum(self.probes)
