"""Tests for the adaptive profit-driven spammer."""

import pytest

from repro.core import ZmailConfig, ZmailNetwork
from repro.economics.adaptive import AdaptiveSpammer
from repro.sim.workload import Address


def make_network(compliant_spammer: bool, seed=80):
    flags = [True, True, True] if compliant_spammer else [True, True, False]
    config = ZmailConfig(
        default_daily_limit=10**6,
        default_user_balance=10**6,  # the economics, not the purse, decides
        auto_topup_amount=0,
    )
    return ZmailNetwork(
        n_isps=3, users_per_isp=10, compliant=flags, config=config, seed=seed
    )


def make_spammer(compliant: bool, *, conversion=0.0005, seed=80, volume=200):
    net = make_network(compliant, seed=seed)
    spammer_isp = 0 if compliant else 2
    return AdaptiveSpammer(
        network=net,
        address=Address(spammer_isp, 0),
        conversion_rate=conversion,
        epenny_dollars=0.01 if compliant else 0.0,
        initial_volume=volume,
        seed=seed,
    )


class TestAdaptiveDynamics:
    def test_status_quo_spammer_grows(self):
        """Free riding + profitable conversions: volume expands.

        Volume must be large enough that expected conversions per period
        exceed 1, or the feedback signal is pure noise."""
        spammer = make_spammer(compliant=False, conversion=0.002, volume=2000)
        spammer.run(periods=5)
        assert spammer.final_volume() > spammer.initial_volume
        assert spammer.total_profit() > 0

    def test_zmail_spammer_collapses(self):
        """Paying a cent per message at bulk conversion rates loses money
        every period; the loop drives volume to nothing."""
        spammer = make_spammer(compliant=True, conversion=0.0003, volume=2000)
        spammer.run(periods=12)
        assert spammer.collapsed()
        assert spammer.total_profit() < 0  # tuition paid to learn the market

    def test_high_value_targeted_campaign_survives_zmail(self):
        """The paper: targeted advertising continues to exist."""
        spammer = make_spammer(compliant=True, conversion=0.01, seed=81,
                               volume=500)
        spammer.run(periods=6)
        assert not spammer.collapsed()
        assert spammer.total_profit() > 0

    def test_volume_reacts_to_profit_sign(self):
        spammer = make_spammer(compliant=False, conversion=0.002, volume=2000)
        outcome = spammer.run_period()
        following = spammer.run_period()
        if outcome.profit > 0:
            assert following.attempted > outcome.attempted
        else:
            assert following.attempted < outcome.attempted

    def test_history_recorded_per_period(self):
        spammer = make_spammer(compliant=False)
        spammer.run(periods=5)
        assert [o.period for o in spammer.history] == [0, 1, 2, 3, 4]

    def test_conservation_all_the_while(self):
        spammer = make_spammer(compliant=True)
        spammer.run(periods=6)
        net = spammer.network
        assert net.total_value() == net.expected_total_value()

    def test_validation(self):
        net = make_network(True)
        with pytest.raises(ValueError):
            AdaptiveSpammer(network=net, address=Address(0, 0), growth=0.9)
        with pytest.raises(ValueError):
            AdaptiveSpammer(network=net, address=Address(0, 0), initial_volume=0)


class TestVolumeLearner:
    """Regression pins for the two edge cases surfaced by arena reuse."""

    def test_profitable_spammer_escapes_the_volume_floor(self):
        """int(1 * 1.5) == 1 — growth must still advance from volume 1."""
        from repro.economics.adaptive import VolumeLearner

        learner = VolumeLearner(volume=1)
        assert learner.update(profit=1.0) == 2
        assert learner.update(profit=1.0) == 3  # int(2 * 1.5) == 3

    def test_long_profitable_streak_is_capped_not_overflowed(self):
        """A thousand profitable periods must not grow volume without
        bound (pre-fix: geometric growth past float64 exact range)."""
        from repro.economics.adaptive import VolumeLearner

        learner = VolumeLearner(volume=200, max_volume=50_000)
        for _ in range(1000):
            volume = learner.update(profit=1.0)
            assert volume <= 50_000
        assert learner.volume == 50_000

    def test_decay_floor_holds(self):
        from repro.economics.adaptive import VolumeLearner

        learner = VolumeLearner(volume=2)
        assert learner.update(profit=-1.0) == 1
        assert learner.update(profit=-1.0) == 1

    def test_spammer_at_floor_recovers_when_market_turns(self):
        """End-to-end pin: collapse to the floor, then a profitable
        market must let the loop climb back out."""
        spammer = make_spammer(compliant=True, conversion=0.0, volume=4)
        spammer.run(periods=4)
        # Flip the market: free sending, guaranteed conversions.
        spammer.conversion_rate = 1.0
        spammer.epenny_dollars = 0.0
        assert spammer.run_period().attempted == 1
        assert spammer.run_period().attempted == 2

    def test_spammer_max_volume_honored(self):
        spammer = AdaptiveSpammer(
            network=make_network(False),
            address=Address(2, 0),
            conversion_rate=1.0,
            epenny_dollars=0.0,
            initial_volume=64,
            max_volume=100,
        )
        spammer.run(periods=3)
        assert spammer.final_volume() == 100

    def test_learner_validation(self):
        from repro.economics.adaptive import VolumeLearner

        with pytest.raises(ValueError):
            VolumeLearner(volume=1, growth=1.0)
        with pytest.raises(ValueError):
            VolumeLearner(volume=1, decay=0.0)
        with pytest.raises(ValueError):
            VolumeLearner(volume=0)
        with pytest.raises(ValueError):
            VolumeLearner(volume=5, max_volume=4)
        with pytest.raises(ValueError):
            VolumeLearner(volume=1, min_volume=0)
