"""Tests for the virtual clock and its time units."""

import pytest

from repro.sim.clock import DAY, HOUR, MINUTE, MONTH, SECOND, WEEK, Clock


class TestConstants:
    def test_units_compose(self):
        assert MINUTE == 60 * SECOND
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR
        assert WEEK == 7 * DAY
        assert MONTH == 30 * DAY


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advance_to(self):
        clock = Clock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_same_time_ok(self):
        clock = Clock()
        clock.advance_to(5.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_advance_backwards_rejected(self):
        clock = Clock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(9.0)
