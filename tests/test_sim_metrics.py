"""Tests for counters, summary statistics and the registry."""

import pytest

from repro.sim.metrics import Counter, MetricsRegistry, summary_stats


class TestSummaryStats:
    def test_empty_is_zeros(self):
        stats = summary_stats([])
        assert stats == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "stddev": 0.0,
        }

    def test_basic(self):
        stats = summary_stats([1.0, 2.0, 3.0])
        assert stats["count"] == 3
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["stddev"] == pytest.approx((2.0 / 3.0) ** 0.5)

    def test_stddev_is_population_not_sample(self):
        # [2, 4, 4, 4, 5, 5, 7, 9] is the textbook known-variance set:
        # mean 5, population variance exactly 4 (stddev 2). The sample
        # (n-1) estimator would give sqrt(32/7) ≈ 2.138 — this test pins
        # the documented divisor-n choice and fails if anyone "fixes" it.
        stats = summary_stats([2, 4, 4, 4, 5, 5, 7, 9])
        assert stats["mean"] == pytest.approx(5.0)
        assert stats["stddev"] == pytest.approx(2.0)
        assert stats["stddev"] != pytest.approx((32.0 / 7.0) ** 0.5)

    def test_stddev_zero_for_constant_sequence(self):
        stats = summary_stats([3.5] * 10)
        assert stats["stddev"] == 0.0
        assert stats["min"] == stats["max"] == stats["mean"] == 3.5


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_decrement_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").increment(-1)


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("sent").increment(3)
        assert registry.snapshot() == {"counters": {"sent": 3}}
