"""Host-speed calibration for the benchmark's timings.

The reference host (2 vCPUs shared with other tenants) changes speed by
up to 2.2x, in states that last from well under a second to minutes.
CPU time slows with them as much as wall time does (``process_time``
tracked ``perf_counter`` within 1-5% per pass), so neither clock lets
two sets of runs taken minutes apart agree.

A fixed unit of interpreter work that shares no code with the program
under test (:func:`unit`: heap events and dict updates, like a
discrete-event simulator's inner loop) is timed before the first
measured work, after every ``EVERY_S`` seconds of it, and at the end of
every pass.  The
work between two units is a *segment*; each segment's host seconds are
scaled by ``REFERENCE_UNIT_S`` over the mean of the two units around it
(:meth:`Calibration.reference_s`).  That gives *reference seconds*: the
time on a host where one unit takes ``REFERENCE_UNIT_S``, measured
against the host's speed at the moment the work ran.

Measured on the reference host over eight two-pass fig9-sweep runs,
across which raw host seconds moved from 6.0 to 10.1 s, as the
interquartile spread over median: host seconds 0.28; scaled by the
run's fastest unit 0.27; by the run's median unit 0.12; by the units
around each segment (this module) 0.03-0.05.  When the host got 2.2x
faster (a fig9-sweep pass went from 9-10 s to 4.5 s), reference
``wall_s`` moved by 3.5-9%.  Work with more allocation or kernel time in
it tracks the unit less closely: on the same change fig9-sweep's input
building (``setup_s``) moved by 20-27%, and the service's server CPU
per txn by 20% in reference seconds against 57% in host seconds.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Callable, List

#: Steps in one unit: 8-16 ms on the reference host.
UNIT_STEPS = 10_000
#: The time of one unit on the host that reference seconds are given
#: for; it fixes the scale of every reference-seconds figure.
REFERENCE_UNIT_S = 0.008
#: Seconds of measured work between two units.
EVERY_S = 0.1


def unit(steps: int = UNIT_STEPS) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    slots = [{} for _ in range(64)]
    heap = [(i, i % 64, i * 7 % 1024) for i in range(256)]
    heapq.heapify(heap)
    acc = 0
    for step in range(steps):
        t, slot, key = heapq.heappop(heap)
        table = slots[slot]
        old = table.get(key)
        table[key] = step
        if old is not None:
            acc ^= old
        heapq.heappush(heap, (t + 1 + (key & 7), (slot * 31 + 7) % 64,
                              (key * 13 + step) % 1024))
    return acc


class Calibration:
    """Units timed around the measured work of one run."""

    def __init__(self, every_s: float = EVERY_S,
                 clock: Callable[[], float] = time.perf_counter,
                 work: Callable[[], object] = unit) -> None:
        self.every_s = every_s
        self.clock = clock
        self.work = work
        #: Host seconds of every unit timed so far; segment ``i`` lies
        #: between ``units[i]`` and ``units[i + 1]``.
        self.units: List[float] = []
        self._since = 0.0

    def _time_unit(self) -> None:
        start = self.clock()
        self.work()
        self.units.append(self.clock() - start)
        self._since = 0.0

    def segment(self) -> int:
        """The segment that work starting now falls in."""
        if not self.units:
            self._time_unit()
        return len(self.units) - 1

    def tick(self, seconds: float) -> None:
        """Account ``seconds`` of measured work; close the segment when due."""
        self._since += seconds
        if self._since >= self.every_s:
            self._time_unit()

    def close(self) -> None:
        """Close the open segment, if it holds any work."""
        if self._since > 0.0:
            self._time_unit()

    def reference_s(self, host_s: float, segment: int) -> float:
        """``host_s`` spent in closed ``segment``, in reference seconds."""
        around = self.units[segment] + self.units[segment + 1]
        return host_s * 2.0 * REFERENCE_UNIT_S / around

    def scale(self) -> float:
        """Reference seconds per host second for work outside any segment."""
        return REFERENCE_UNIT_S / statistics.median(self.units)
