"""Tests for the declarative scenario runner."""

import pytest

from repro.core import NonCompliantMailPolicy, ZmailConfig
from repro.core.scenario import Scenario, ScenarioResult, SpammerSpec, ZombieSpec
from repro.sim import DAY, HOUR, Address


class TestBasicScenario:
    def test_normal_only_run(self):
        result = Scenario(duration=2 * DAY, seed=1).run()
        assert result.sends_attempted > 0
        assert result.delivered > 0
        assert result.conserved
        assert result.all_reconciliations_consistent

    def test_final_reconciliation_always_runs(self):
        result = Scenario(duration=DAY, reconcile_every=0.0, seed=1).run()
        assert len(result.reconciliations) == 1

    def test_periodic_reconciliation(self):
        result = Scenario(
            duration=10 * DAY, reconcile_every=2 * DAY, seed=2
        ).run()
        assert len(result.reconciliations) >= 4
        assert result.all_reconciliations_consistent

    def test_summary_shape(self):
        summary = Scenario(duration=DAY, seed=1).run().summary()
        for key in (
            "sends_attempted", "delivered", "conserved",
            "reconciliation_rounds", "all_consistent",
        ):
            assert key in summary

    def test_deterministic_given_seed(self):
        a = Scenario(duration=DAY, seed=9).run()
        b = Scenario(duration=DAY, seed=9).run()
        assert a.sends_attempted == b.sends_attempted
        assert a.delivered == b.delivered


class TestAdversarialScenario:
    def make(self):
        return Scenario(
            n_isps=4,
            users_per_isp=10,
            compliant=[True, True, True, False],
            config=ZmailConfig(
                default_daily_limit=60,
                default_user_balance=80,
                auto_topup_amount=0,
                noncompliant_policy=NonCompliantMailPolicy.SEGREGATE,
            ),
            seed=3,
            duration=3 * DAY,
            normal_rate_per_day=5.0,
            spammers=[
                SpammerSpec(Address(0, 0), volume=800, war_chest=100),
                SpammerSpec(Address(3, 0), volume=800),
            ],
            zombies=[
                ZombieSpec(
                    Address(1, 7), rate_per_hour=100.0,
                    start=DAY, end=DAY + 8 * HOUR,
                )
            ],
            reconcile_every=DAY,
        )

    def test_runs_clean(self):
        result = self.make().run()
        assert result.conserved
        assert result.all_reconciliations_consistent

    def test_compliant_spammer_choked(self):
        """The daily limit throttles the compliant-side spammer long
        before its war chest would: of 800 attempts over 3 days, at most
        3 x 60 clear the limit."""
        result = self.make().run()
        assert result.blocked_limit > 500
        spammer_user = result.network.isps[0].ledger.user(0)
        assert spammer_user.lifetime_sent <= 3 * 60

    def test_noncompliant_spam_segregated(self):
        result = self.make().run()
        assert result.junked > 200

    def test_zombie_detected(self):
        result = self.make().run()
        detected = {d.address for d in result.zombie_detections}
        assert Address(1, 7) in detected

    def test_limit_blocks_counted(self):
        result = self.make().run()
        assert result.blocked_limit > 0


class TestScenarioCustomisation:
    def test_build_network_exposed(self):
        scenario = Scenario(n_isps=2, users_per_isp=3)
        net = scenario.build_network()
        assert net.n_isps == 2
        assert len(net.compliant_isps()) == 2


class TestEngineModeScenario:
    def test_engine_run_with_latency_and_markers(self):
        from repro.sim import LinkSpec

        result = Scenario(
            duration=2 * DAY,
            seed=5,
            reconcile_every=DAY,
            mode="engine",
            link=LinkSpec(base_latency=0.5, jitter=0.3),
        ).run()
        assert result.conserved
        assert result.all_reconciliations_consistent
        assert len(result.reconciliations) >= 2
        assert result.delivered > 0

    def test_engine_and_direct_agree_on_accounting(self):
        """Same scenario, both modes: identical message counts and both
        conserved (delivery timing differs, totals must not)."""
        spec = dict(duration=DAY, seed=6, normal_rate_per_day=10.0)
        direct = Scenario(**spec).run()
        engine = Scenario(**spec, mode="engine").run()
        assert direct.sends_attempted == engine.sends_attempted
        assert direct.conserved and engine.conserved

    def test_engine_adversarial(self):
        from repro.sim import LinkSpec

        result = Scenario(
            n_isps=3,
            compliant=[True, True, False],
            duration=2 * DAY,
            seed=7,
            spammers=[SpammerSpec(Address(2, 0), volume=300)],
            mode="engine",
            link=LinkSpec(base_latency=0.2),
        ).run()
        assert result.conserved
        assert result.spam_delivered > 200
