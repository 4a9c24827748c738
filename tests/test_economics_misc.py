"""Tests for user flows, ISP costs, market projection and adoption sweeps."""

import pytest

from repro.core import ZmailNetwork
from repro.economics.adoption import sweep_policies, sweep_propensity
from repro.economics.isp_costs import (
    SPAM_SHARE_2001,
    SPAM_SHARE_2004,
    ISPCostModel,
)
from repro.economics.market import project_market
from repro.economics.spammer import CampaignModel
from repro.economics.user_flows import (
    analyze_user_flows,
    required_buffer,
)
from repro.sim import DAY, Address, SeededStreams
from repro.sim.workload import NormalUserWorkload


class TestUserFlows:
    def drive_balanced_network(self, days=5):
        net = ZmailNetwork(n_isps=3, users_per_isp=10, seed=6)
        workload = NormalUserWorkload(
            n_isps=3, users_per_isp=10, rate_per_day=8.0,
            streams=SeededStreams(6),
        )
        net.run_workload(workload.generate(days * DAY))
        return net

    def test_mean_net_flow_near_zero(self):
        """§1.2 claim 2: balanced users neither pay nor profit."""
        net = self.drive_balanced_network()
        summary = analyze_user_flows(net)
        assert summary.users == 30
        assert abs(summary.mean_net_flow) < 0.5
        # Mean flow over all users is exactly zero iff all mail is internal:
        assert summary.mean_sent == pytest.approx(summary.mean_received)

    def test_exclusion_removes_outliers(self):
        net = self.drive_balanced_network()
        spammer = Address(0, 0)
        for i in range(200):
            net.send(spammer, Address(1, i % 10))
        with_spammer = analyze_user_flows(net)
        without = analyze_user_flows(net, exclude={spammer})
        assert without.min_net_flow > with_spammer.min_net_flow

    def test_fraction_within_tolerance(self):
        net = self.drive_balanced_network()
        summary = analyze_user_flows(net, tolerance=10_000)
        assert summary.fraction_within == 1.0

    def test_empty_network(self):
        net = ZmailNetwork(n_isps=1, users_per_isp=1)
        summary = analyze_user_flows(
            net, exclude={Address(0, 0)}
        )
        assert summary.users == 0
        assert summary.mean_net_flow == 0.0


class TestRequiredBuffer:
    def test_scales_with_sqrt_time(self):
        b30 = required_buffer(10, 30)
        b120 = required_buffer(10, 120)
        assert b120 == pytest.approx(2 * b30, rel=0.05)

    def test_higher_confidence_needs_more(self):
        assert required_buffer(10, 30, confidence=0.999) > required_buffer(
            10, 30, confidence=0.9
        )

    def test_zero_rate_needs_nothing(self):
        assert required_buffer(0, 30) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            required_buffer(-1, 30)
        with pytest.raises(ValueError):
            required_buffer(10, 30, confidence=0.3)

    def test_paper_scale_buffer_is_small_dollars(self):
        """A normal user's float is pocket change — the paper's point that
        initial balances are a non-issue for normal users."""
        epennies = required_buffer(20, 30, confidence=0.99)
        assert epennies < 200  # under $2.00


class TestISPCosts:
    def test_spam_shares_cited(self):
        assert SPAM_SHARE_2001 == 0.08
        assert SPAM_SHARE_2004 == 0.60

    def test_cost_grows_with_spam_share(self):
        model = ISPCostModel()
        assert (
            model.annual_cost(SPAM_SHARE_2004).total
            > model.annual_cost(SPAM_SHARE_2001).total
        )

    def test_message_volume_inflation(self):
        model = ISPCostModel(legitimate_messages_per_year=1e6)
        assert model.message_volume(0.6) == pytest.approx(2.5e6)

    def test_spam_attributable_cost_positive(self):
        model = ISPCostModel()
        spam_free = model.annual_cost(0.0, filtering_enabled=False).total
        assert model.annual_cost(0.6).total > spam_free

    def test_invalid_share(self):
        with pytest.raises(ValueError):
            ISPCostModel().message_volume(1.0)


class TestMarketProjection:
    def test_spam_share_collapses(self):
        campaigns = [
            CampaignModel(1_000_000, 0.00003, 25.0),
            CampaignModel(1_000_000, 0.002, 30.0),
        ]
        before, after = project_market(campaigns=campaigns)
        assert before.spam_share == pytest.approx(0.6, abs=0.01)
        assert after.spam_share < 0.35
        assert after.spam_volume < before.spam_volume

    def test_isp_cost_falls(self):
        campaigns = [CampaignModel(1_000_000, 0.00003, 25.0)]
        before, after = project_market(campaigns=campaigns)
        assert after.isp_annual_cost < before.isp_annual_cost

    def test_empty_campaigns_rejected(self):
        with pytest.raises(ValueError):
            project_market(campaigns=[])


class TestAdoptionSweeps:
    def test_policy_sweep_covers_all_policies(self):
        outcomes = sweep_policies(n_isps=40, seed=2)
        assert len(outcomes) == 4
        assert all(o.final_fraction > 0.9 for o in outcomes)

    def test_propensity_sweep_ordering(self):
        outcomes = sweep_propensity([0.05, 0.5], n_isps=40, seed=2)
        slow, fast = outcomes
        assert (fast.rounds_to_90pct or 999) <= (slow.rounds_to_90pct or 999)


class TestProductivityLoss:
    def test_gartner_figure_reproduced(self):
        """The paper's Gartner citation: ~$300k/yr for 1,000 employees."""
        from repro.economics import productivity_loss_annual

        loss = productivity_loss_annual(employees=1000, seconds_per_spam=10.0)
        assert 250_000 < loss < 400_000

    def test_scales_linearly_with_employees(self):
        from repro.economics import productivity_loss_annual

        one = productivity_loss_annual(employees=100)
        ten = productivity_loss_annual(employees=1000)
        assert ten == pytest.approx(10 * one)

    def test_zero_employees_zero_loss(self):
        from repro.economics import productivity_loss_annual

        assert productivity_loss_annual(employees=0) == 0.0

    def test_negative_rejected(self):
        from repro.economics import productivity_loss_annual

        with pytest.raises(ValueError):
            productivity_loss_annual(employees=-1)


class TestSpamShareTimeline:
    def make(self):
        from repro.economics.timeline import SpamShareTimeline

        return SpamShareTimeline.fit()

    def test_fits_cited_points_exactly(self):
        timeline = self.make()
        assert timeline.share(2001.0) == pytest.approx(0.08, abs=1e-9)
        assert timeline.share(2004.25) == pytest.approx(0.60, abs=1e-9)

    def test_trend_keeps_growing_unchecked(self):
        timeline = self.make()
        assert timeline.share(2006.0) > 0.8
        assert timeline.share(2010.0) > 0.95

    def test_zmail_bends_the_curve(self):
        timeline = self.make()
        unchecked = timeline.share(2007.0)
        with_zmail = timeline.with_zmail(2007.0, adopted_at=2005.0)
        assert with_zmail < unchecked
        # Long-run: only the surviving targeted volume remains.
        assert timeline.with_zmail(2015.0, adopted_at=2005.0) == pytest.approx(
            0.1, abs=0.01
        )

    def test_before_adoption_matches_trend(self):
        timeline = self.make()
        assert timeline.with_zmail(2003.0, adopted_at=2005.0) == pytest.approx(
            timeline.share(2003.0)
        )

    def test_validation(self):
        from repro.economics.timeline import SpamShareTimeline

        with pytest.raises(ValueError):
            SpamShareTimeline.fit(share_a=0.0)
        with pytest.raises(ValueError):
            SpamShareTimeline.fit(year_b=2000.0)
