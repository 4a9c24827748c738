"""Measurement primitives for simulation experiments.

:class:`Counter` — a monotonically increasing named total — is the one
instrument every layer records; a :class:`MetricsRegistry` namespaces
counters so workloads, protocol layers and baselines can record without
sharing global state. :func:`summary_stats` summarises a run's samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = ["Counter", "MetricsRegistry", "summary_stats"]


def summary_stats(values: Iterable[float]) -> dict[str, float]:
    """Compute count/mean/min/max/stddev for a sequence of values.

    ``stddev`` is the **population** standard deviation (divisor ``n``,
    like ``numpy.std`` with default ``ddof=0``), not the ``n - 1`` sample
    estimator: the inputs here are complete enumerations of what a
    deterministic run produced (every user's net flow, every latency),
    not samples from a larger population, so there is no estimator bias
    to correct. Callers doing inference across *seeds* should use
    :func:`repro.economics.sensitivity.mean_ci`, which deliberately uses
    the ``n - 1`` sample variance. This is the only stddev
    implementation in the repo — benchmarks must report spread through
    this function rather than reimplementing it.

    Returns zeros for an empty sequence rather than raising, so callers can
    report on experiments that produced no samples.
    """
    data = list(values)
    n = len(data)
    if n == 0:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "stddev": 0.0}
    mean = sum(data) / n
    var = sum((x - mean) ** 2 for x in data) / n
    return {
        "count": n,
        "mean": mean,
        "min": min(data),
        "max": max(data),
        "stddev": math.sqrt(var),
    }


@dataclass(slots=True)
class Counter:
    """A named monotonically increasing total.

    Incremented once or twice per simulated message, so it carries
    ``__slots__``; hot callers should also hold the counter (or its bound
    :meth:`increment`) rather than re-looking it up by name per message.
    """

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount


class MetricsRegistry:
    """A namespace of counters.

    Components call :meth:`counter` to get-or-create a counter by name;
    experiments read them back at the end of a run via :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def snapshot(self) -> dict[str, object]:
        """A plain-dict dump of every counter, for reports and tests."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
        }
