"""Tests for the discrete-event engine: ordering, cancellation, periodics."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append(5))
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(3.0, lambda: fired.append(3))
        engine.run()
        assert fired == [1, 3, 5]

    def test_ties_fire_in_insertion_order(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule_at(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == list(range(10))

    def test_priority_breaks_ties(self):
        engine = Engine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append("late"), priority=5)
        engine.schedule_at(1.0, lambda: fired.append("early"), priority=-5)
        engine.run()
        assert fired == ["early", "late"]

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.schedule_at(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            engine.schedule_at(5.0, lambda: None)

    def test_schedule_after(self):
        engine = Engine()
        seen = []
        engine.schedule_at(10.0, lambda: engine.schedule_after(
            5.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [15.0]

    def test_schedule_after_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="negative delay"):
            Engine().schedule_after(-1.0, lambda: None)

    def test_clock_advances_with_events(self):
        engine = Engine()
        times = []
        engine.schedule_at(2.0, lambda: times.append(engine.now))
        engine.schedule_at(7.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [2.0, 7.0]
        assert engine.now == 7.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        engine.schedule_at(1.0, lambda: None)
        handle = engine.schedule_at(2.0, lambda: None)
        handle.cancel()
        assert engine.pending == 1


class TestRunBounds:
    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0  # clock tiled to the bound

    def test_run_until_includes_boundary_event(self):
        engine = Engine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append(5))
        engine.run(until=5.0)
        assert fired == [5]

    def test_sequential_run_until_windows(self):
        engine = Engine()
        fired = []
        for t in (1.0, 4.0, 9.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run(until=2.0)
        engine.run(until=5.0)
        engine.run()
        assert fired == [1.0, 4.0, 9.0]

    def test_events_processed_counter(self):
        engine = Engine()
        for t in range(5):
            engine.schedule_at(float(t), lambda: None)
        engine.run()
        assert engine.events_processed == 5


class TestPeriodic:
    def test_schedule_every_fires_repeatedly(self):
        engine = Engine()
        fired = []
        engine.schedule_every(2.0, lambda: fired.append(engine.now))
        engine.run(until=9.0)
        assert fired == [2.0, 4.0, 6.0, 8.0]

    def test_schedule_every_cancel_stops_chain(self):
        engine = Engine()
        fired = []
        handle = engine.schedule_every(2.0, lambda: fired.append(engine.now))
        engine.schedule_at(5.0, handle.cancel)
        engine.run(until=20.0)
        assert fired == [2.0, 4.0]

    def test_schedule_every_custom_start(self):
        engine = Engine()
        fired = []
        engine.schedule_every(10.0, lambda: fired.append(engine.now), start=1.0)
        engine.run(until=25.0)
        assert fired == [1.0, 11.0, 21.0]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError, match="interval"):
            Engine().schedule_every(0.0, lambda: None)
