"""Tests for the email workload generators."""

import pytest

from repro.sim.clock import DAY, HOUR
from repro.sim.rng import SeededStreams
from repro.sim.workload import (
    CONTACTS_PER_USER,
    Address,
    NormalUserWorkload,
    SpamCampaignWorkload,
    TrafficKind,
    ZombieBurstWorkload,
    merge_workloads,
)


class TestAddress:
    def test_string_form(self):
        assert str(Address(2, 7)) == "user7@isp2"

    def test_equality_and_hash(self):
        assert Address(1, 2) == Address(1, 2)
        assert len({Address(1, 2), Address(1, 2), Address(2, 1)}) == 2

    def test_ordering(self):
        assert Address(0, 5) < Address(1, 0)


class TestNormalUserWorkload:
    def make(self, rate=10.0, seed=0):
        return NormalUserWorkload(
            n_isps=3,
            users_per_isp=4,
            rate_per_day=rate,
            streams=SeededStreams(seed),
        )

    def test_requests_time_ordered(self):
        requests = list(self.make().generate(DAY))
        times = [r.time for r in requests]
        assert times == sorted(times)
        assert all(0 <= t < DAY for t in times)

    def test_volume_matches_rate(self):
        requests = list(self.make(rate=10.0).generate(DAY))
        expected = 10.0 * 12  # rate * population
        assert 0.6 * expected < len(requests) < 1.4 * expected

    def test_no_self_sends(self):
        assert all(
            r.sender != r.recipient for r in self.make().generate(DAY)
        )

    def test_kind_is_normal(self):
        requests = list(self.make().generate(HOUR))
        assert all(r.kind is TrafficKind.NORMAL for r in requests)

    def test_recipients_from_fixed_contacts(self):
        workload = self.make()
        requests = list(workload.generate(10 * DAY))
        by_sender = {}
        for r in requests:
            by_sender.setdefault(r.sender, set()).add(r.recipient)
        for recipients in by_sender.values():
            assert len(recipients) <= CONTACTS_PER_USER

    def test_deterministic_given_seed(self):
        a = list(self.make(seed=5).generate(DAY))
        b = list(self.make(seed=5).generate(DAY))
        assert a == b

    def test_zero_rate_produces_nothing(self):
        assert list(self.make(rate=0.0).generate(DAY)) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NormalUserWorkload(
                n_isps=0, users_per_isp=1, rate_per_day=1.0,
                streams=SeededStreams(0),
            )
        with pytest.raises(ValueError):
            NormalUserWorkload(
                n_isps=1, users_per_isp=1, rate_per_day=-1.0,
                streams=SeededStreams(0),
            )


class TestSpamCampaignWorkload:
    def make(self, volume=500):
        return SpamCampaignWorkload(
            spammer=Address(0, 0),
            n_isps=3,
            users_per_isp=4,
            volume=volume,
            start=100.0,
            duration=1000.0,
            streams=SeededStreams(1),
        )

    def test_exact_volume(self):
        assert len(list(self.make(500).generate())) == 500

    def test_window_respected(self):
        for r in self.make().generate():
            assert 100.0 <= r.time < 1100.0

    def test_spammer_never_targets_self(self):
        assert all(
            r.recipient != Address(0, 0) for r in self.make().generate()
        )

    def test_sender_is_spammer(self):
        assert all(r.sender == Address(0, 0) for r in self.make().generate())

    def test_kind_is_spam(self):
        assert all(r.kind is TrafficKind.SPAM for r in self.make().generate())

    def test_time_ordered(self):
        times = [r.time for r in self.make().generate()]
        assert times == sorted(times)


class TestZombieBurstWorkload:
    def make(self):
        return ZombieBurstWorkload(
            zombie=Address(1, 1),
            n_isps=2,
            users_per_isp=3,
            rate_per_hour=600.0,
            start=0.0,
            end=HOUR,
            streams=SeededStreams(2),
        )

    def test_rate_roughly_matches(self):
        count = len(list(self.make().generate()))
        assert 400 < count < 800

    def test_window_respected(self):
        for r in self.make().generate():
            assert 0.0 <= r.time < HOUR

    def test_kind_is_zombie(self):
        assert all(r.kind is TrafficKind.ZOMBIE for r in self.make().generate())

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ZombieBurstWorkload(
                zombie=Address(0, 0), n_isps=1, users_per_isp=2,
                rate_per_hour=10.0, start=5.0, end=5.0,
                streams=SeededStreams(0),
            )


class TestMergeWorkloads:
    def test_merge_preserves_global_order(self):
        normal = NormalUserWorkload(
            n_isps=2, users_per_isp=3, rate_per_day=50.0,
            streams=SeededStreams(0),
        )
        spam = SpamCampaignWorkload(
            spammer=Address(0, 0), n_isps=2, users_per_isp=3,
            volume=100, start=0.0, duration=DAY, streams=SeededStreams(1),
        )
        merged = list(merge_workloads(normal.generate(DAY), spam.generate()))
        times = [r.time for r in merged]
        assert times == sorted(times)
        kinds = {r.kind for r in merged}
        assert TrafficKind.NORMAL in kinds and TrafficKind.SPAM in kinds
