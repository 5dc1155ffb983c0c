"""A stand-in clock for deadline tests: a deadline fires after a fixed number
of clock reads on any machine, however fast the search runs."""

from contextlib import contextmanager
from unittest.mock import patch

from strongdom import bondage, domination


class TickingClock:
    """Stands in for the ``time`` module: each ``monotonic()`` read advances
    the clock by one tick."""

    def __init__(self):
        self.ticks = 0

    def monotonic(self):
        self.ticks += 1
        return float(self.ticks)


@contextmanager
def ticking_time():
    """Patch a ``TickingClock`` in as the clock of the gamma and bondage
    searches, and of the budget-to-deadline step; yields the clock."""
    clock = TickingClock()
    with patch.object(bondage, "time", clock), patch.object(domination, "time", clock):
        yield clock
