"""Time the package's set-up in this fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_time.py < config.ini

Imports the package, parses the config on standard input and builds its
epsilon budget, and prints the raw and the scaled seconds that took
(see probe.py).  The probe is also read, when due, before each module
the import loads, so a long import is scaled by the speed along it.
"""

import sys
from time import perf_counter

from probe import Timeline


class _TickFinder:
    """A meta path finder that finds nothing and ticks the timeline."""

    def __init__(self, timeline: Timeline):
        self.timeline = timeline

    def find_spec(self, name, path=None, target=None):
        self.timeline.tick()
        return None


def main() -> None:
    text = sys.stdin.read()
    timeline = Timeline()
    timeline.read()  # warms the probe up
    timeline.read()
    sys.meta_path.insert(0, _TickFinder(timeline))
    t0 = perf_counter()
    import qkd_keyrate  # noqa: F401
    from qkd_keyrate.config import parse_config

    parse_config(text).budget()
    t1 = perf_counter()
    timeline.read()
    print(*map(repr, timeline.span(t0, t1)))


if __name__ == "__main__":
    main()
