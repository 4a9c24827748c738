"""Virtual clock for the discrete-event simulator.

The simulator measures time in abstract seconds. Helpers convert between
seconds, minutes, hours and days so workload code can speak in natural
units (the Zmail paper's quantities are per-day limits, 10-minute snapshot
timeouts, and monthly reconciliation periods).
"""

from __future__ import annotations

from dataclasses import dataclass, field

SECOND = 1.0
MINUTE = 60.0 * SECOND
HOUR = 60.0 * MINUTE
DAY = 24.0 * HOUR
WEEK = 7.0 * DAY
# The paper reconciles "once a week or once a month"; we use a 30-day month.
MONTH = 30.0 * DAY

__all__ = [
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "MONTH",
    "Clock",
]


@dataclass
class Clock:
    """A monotonically advancing virtual clock.

    The clock only moves forward; :meth:`advance_to` raises ``ValueError``
    on any attempt to move backwards, which would indicate a scheduler bug.
    """

    now: float = field(default=0.0)

    def advance_to(self, t: float) -> None:
        """Advance the clock to absolute time ``t`` (>= current time)."""
        if t < self.now:
            raise ValueError(f"clock cannot move backwards: {t} < {self.now}")
        self.now = t

    @property
    def day(self) -> int:
        """The zero-based day index of the current time."""
        return int(self.now // DAY)
