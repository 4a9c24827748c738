"""Tests for the NNC nonce source and replay registry."""

import pytest

from repro.crypto.nonce import NonceRegistry, NonceSource
from repro.errors import ReplayDetected


class TestNonceSource:
    def test_nonrepetition(self):
        """The paper's hard requirement: nonces never repeat."""
        source = NonceSource(seed=1)
        nonces = [source.next() for _ in range(5000)]
        assert len(set(nonces)) == len(nonces)

    def test_determinism_per_seed(self):
        a = NonceSource(seed=1)
        b = NonceSource(seed=1)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_unpredictability_across_seeds(self):
        a = NonceSource(seed=1)
        b = NonceSource(seed=2)
        assert [a.next() for _ in range(10)] != [b.next() for _ in range(10)]

    def test_owner_separates_streams(self):
        a = NonceSource(seed=1, owner="isp0")
        b = NonceSource(seed=1, owner="isp1")
        assert a.next() != b.next()

    def test_64_bit_range(self):
        source = NonceSource(seed=3)
        for _ in range(100):
            assert 0 <= source.next() < 2**64


class TestNonceRegistry:
    def test_replay_detected(self):
        registry = NonceRegistry()
        registry.check_and_record(42)
        with pytest.raises(ReplayDetected):
            registry.check_and_record(42)

    def test_distinct_nonces_pass(self):
        registry = NonceRegistry()
        for n in range(100):
            registry.check_and_record(n)
        assert len(registry) == 100

    def test_end_to_end_with_source(self):
        """A source's stream passes a registry; replaying any one fails."""
        source = NonceSource(seed=9)
        registry = NonceRegistry()
        nonces = [source.next() for _ in range(50)]
        for n in nonces:
            registry.check_and_record(n)
        with pytest.raises(ReplayDetected):
            registry.check_and_record(nonces[25])
