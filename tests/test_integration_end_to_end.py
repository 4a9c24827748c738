"""Cross-module integration tests: full scenarios on the public API."""

import pytest

from conftest import stream_workload
from repro.baselines.shred import ShredConfig, ShredSystem
from repro.core import (
    NonCompliantMailPolicy,
    SendStatus,
    ZmailConfig,
    ZmailNetwork,
)
from repro.core.mailinglist import ListServer
from repro.core.zombie import ZombieMonitor
from repro.economics.user_flows import analyze_user_flows
from repro.sim import DAY, Address, Engine, LinkSpec, SeededStreams, TrafficKind
from repro.sim.workload import (
    NormalUserWorkload,
    SpamCampaignWorkload,
    ZombieBurstWorkload,
    merge_workloads,
)


class TestSpamCampaignScenario:
    """A spammer blasts a Zmail deployment: every message is paid for,
    receivers profit, and the spammer's balance drains."""

    def run_campaign(self, volume=300):
        config = ZmailConfig(
            default_daily_limit=10_000,
            default_user_balance=50,
            auto_topup_amount=0,
        )
        net = ZmailNetwork(n_isps=3, users_per_isp=10, config=config, seed=8)
        spammer = Address(0, 0)
        net.fund_user(spammer, epennies=volume)
        workload = SpamCampaignWorkload(
            spammer=spammer, n_isps=3, users_per_isp=10,
            volume=volume, start=0.0, duration=DAY,
            streams=SeededStreams(8),
        )
        net.run_workload(workload.generate())
        return net, spammer

    def test_spammer_pays_per_message(self):
        net, spammer = self.run_campaign(volume=300)
        spam_sent = net.metrics.counter("send.kind.spam").value
        assert spam_sent == 300
        user = net.isps[0].ledger.user(0)
        # Funded with 300 extra; every delivered message cost one e-penny.
        assert user.lifetime_sent == 300

    def test_receivers_gain_the_windfall(self):
        """§1.2: 'a windfall rather than a nuisance'."""
        net, spammer = self.run_campaign(volume=300)
        gained = 0
        for isp_id, isp in net.compliant_isps().items():
            for user in isp.ledger.users():
                if Address(isp_id, user.user_id) == spammer:
                    continue
                gained += user.balance - net.config.default_user_balance
        assert gained == 300  # the spammer's 300 e-pennies, redistributed

    def test_underfunded_spammer_is_cut_off(self):
        config = ZmailConfig(default_user_balance=20, auto_topup_amount=0)
        net = ZmailNetwork(n_isps=2, users_per_isp=5, config=config, seed=9)
        spammer = Address(0, 0)
        statuses = [
            net.send(spammer, Address(1, i % 5)).status for i in range(100)
        ]
        assert statuses.count(SendStatus.SENT_PAID) == 20
        assert statuses.count(SendStatus.BLOCKED_BALANCE) == 80

    def test_zmail_vs_shred_collusion(self):
        """Zmail detects what SHRED structurally cannot."""
        import random

        shred = ShredSystem(ShredConfig(trigger_probability=1.0))
        outcome = shred.run_campaign(
            spam_messages=200, colluding=True, rng=random.Random(0)
        )
        assert outcome.effective_spammer_cost_cents == 0.0
        assert not ShredSystem.collusion_detectable()
        # Zmail: same campaign, the spammer's own (colluding) ISP would
        # need to misreport credit, which reconciliation flags. Simulate a
        # colluding ISP by corrupting its report.
        net = ZmailNetwork(n_isps=3, users_per_isp=5, seed=10)
        for i in range(200):
            net.send(Address(0, 0), Address(1 + i % 2, i % 5))
        isps = net.compliant_isps()
        reports = {}
        seq = net.bank.next_seq
        for isp_id, isp in isps.items():
            isp.begin_snapshot(seq)
        for isp_id, isp in isps.items():
            reports[isp_id] = isp.snapshot_reply()
            isp.resume_sending()
        reports[0] = {k: v - 50 for k, v in reports[0].items()}  # hide traffic
        report = net.bank.reconcile(reports)
        assert not report.consistent
        assert 0 in report.suspects


class TestMixedTrafficScenario:
    """Normal mail + spam + a zombie outbreak + a mailing list, together."""

    @pytest.fixture(scope="class")
    def deployment(self):
        config = ZmailConfig(
            default_daily_limit=100,
            default_user_balance=100,
            noncompliant_policy=NonCompliantMailPolicy.SEGREGATE,
        )
        net = ZmailNetwork(
            n_isps=4, users_per_isp=8, compliant=[True, True, True, False],
            config=config, seed=20,
        )
        streams = SeededStreams(20)
        normal = NormalUserWorkload(
            n_isps=4, users_per_isp=8, rate_per_day=6.0, streams=streams
        )
        spammer = Address(3, 0)  # spams from the non-compliant ISP
        spam = SpamCampaignWorkload(
            spammer=spammer, n_isps=4, users_per_isp=8,
            volume=400, start=0.0, duration=2 * DAY, streams=streams,
        )
        zombie = Address(1, 7)
        burst = ZombieBurstWorkload(
            zombie=zombie, n_isps=4, users_per_isp=8,
            rate_per_hour=50.0, start=DAY, end=DAY * 1.5, streams=streams,
        )
        net.run_workload(
            merge_workloads(
                normal.generate(2 * DAY), spam.generate(), burst.generate()
            )
        )
        return net, spammer, zombie

    def test_value_conserved(self, deployment):
        net, _, _ = deployment
        assert net.total_value() == net.expected_total_value()

    def test_noncompliant_spam_segregated(self, deployment):
        net, _, _ = deployment
        junked = sum(
            isp.stats.junked for isp in net.compliant_isps().values()
        )
        assert junked > 100

    def test_zombie_detected_and_contained(self, deployment):
        net, _, zombie = deployment
        monitor = ZombieMonitor(net)
        monitor.poll()
        assert monitor.detected(zombie)

    def test_reconciliation_clean(self, deployment):
        net, _, _ = deployment
        assert net.reconcile("direct").consistent

    def test_normal_users_near_neutral(self, deployment):
        net, spammer, zombie = deployment
        summary = analyze_user_flows(net, exclude={spammer, zombie})
        # Normal users balance out; spam arrives from a non-compliant ISP
        # (unpaid), so it does not skew flows.
        assert abs(summary.mean_net_flow) < 12


class TestEngineModeScenario:
    def test_full_day_with_periodic_reconciliation(self):
        engine = Engine()
        config = ZmailConfig(snapshot_quiesce_seconds=120.0)
        net = ZmailNetwork(
            n_isps=3, users_per_isp=6, config=config, seed=30,
            engine=engine, link=LinkSpec(base_latency=0.2, jitter=0.1),
        )
        streams = SeededStreams(30)
        workload = NormalUserWorkload(
            n_isps=3, users_per_isp=6, rate_per_day=100.0, streams=streams
        )
        stream_workload(net, workload.generate(DAY))
        for t in (DAY / 4, DAY / 2, 3 * DAY / 4):
            engine.schedule_at(t, lambda: net.reconcile("marker"))
        engine.run(until=1.2 * DAY)
        assert len(net.bank.reports) == 3
        assert all(r.consistent for r in net.bank.reports)
        assert net.total_value() == net.expected_total_value()
