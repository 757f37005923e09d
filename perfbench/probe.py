"""A fixed piece of pure-Python work that reads the machine's current speed.

On a shared host the other tenants slow the whole process down by up to
about 1.8x.  The slowdown comes and goes within tens of milliseconds and
its average drifts over minutes, often longer than one run.  The
benchmark reads this probe every ``PROBE_EVERY_S`` of program time and
scales each stretch of program time between two readings by
``NOMINAL_S`` over the mean of those readings: the time the stretch
would have taken at the speed the machine had when the probe took
``NOMINAL_S``.  The probe shares no code with the package, so a change
to the package moves the scaled time as much as the raw one.

The probe does only float and small-int arithmetic and stores into one
small dict, so it allocates no tracked objects: the garbage collector
never runs inside it and the size of the program's heap does not
change its time.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

PROBE_LOOPS = 15_000
# about the probe's time in the quietest phases seen on the 2-core Xeon
# VM this benchmark was built on
NOMINAL_S = 0.0018
# program time between two readings: the slowdown stays correlated over
# a few tens of milliseconds, and a reading costs about 2 ms
PROBE_EVERY_S = 0.03


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = perf_counter()
    store = {}
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += (i * 1.0001) ** 0.5
        store[i & 1023] = acc
    return perf_counter() - t0


class Timeline:
    """Probe readings along a pass, and the time of spans between them.

    ``read()`` takes a reading now; ``tick()`` takes one if the last is
    ``PROBE_EVERY_S`` old.  Read once before the first span to be
    measured and once after the last.  A span may contain readings: the
    time they took is left out of it.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S):
        self.every_s = every_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.readings: list[float] = []
        self._due = 0.0

    def read(self) -> None:
        t0 = perf_counter()
        reading = probe()
        end = perf_counter()
        self.starts.append(t0)
        self.ends.append(end)
        self.readings.append(reading)
        self._due = end + self.every_s

    def tick(self) -> None:
        if perf_counter() >= self._due:
            self.read()

    def span(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of program time in ``[start, end]``.

        Each stretch between two readings is scaled by the mean of those
        two readings, so the span needs a reading before and after it.
        """
        i = bisect_right(self.starts, start)
        if i == 0:
            raise ValueError("span not bracketed by probe readings")
        raw = scaled = 0.0
        prev_end, prev = start, self.readings[i - 1]
        while i < len(self.starts) and self.starts[i] < end:
            piece = self.starts[i] - prev_end
            raw += piece
            scaled += piece * NOMINAL_S * 2.0 / (prev + self.readings[i])
            prev_end, prev = self.ends[i], self.readings[i]
            i += 1
        if i == len(self.starts):
            raise ValueError("span not bracketed by probe readings")
        piece = end - prev_end
        return raw + piece, scaled + piece * NOMINAL_S * 2.0 / (prev + self.readings[i])
