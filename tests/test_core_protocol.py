"""Tests for the ZmailNetwork deployment glue (direct and engine modes)."""

import pytest

from conftest import stream_workload
from repro.core import NonCompliantMailPolicy, SendStatus, ZmailConfig, ZmailNetwork
from repro.errors import SimulationError
from repro.sim import DAY, Address, Engine, LinkSpec, SeededStreams, TrafficKind
from repro.sim.workload import NormalUserWorkload, SpamCampaignWorkload, merge_workloads


def make_net(**kwargs):
    defaults = dict(n_isps=3, users_per_isp=5, seed=1)
    defaults.update(kwargs)
    return ZmailNetwork(**defaults)


class TestDirectMode:
    def test_zero_sum_transfer(self):
        net = make_net()
        before = net.total_value()
        net.send(Address(0, 1), Address(1, 2))
        assert net.total_value() == before
        sender = net.isps[0].ledger.user(1)
        receiver = net.isps[1].ledger.user(2)
        assert sender.balance == net.config.default_user_balance - 1
        assert receiver.balance == net.config.default_user_balance + 1

    def test_credit_antisymmetry_after_traffic(self):
        net = make_net()
        for i in range(40):
            net.send(Address(i % 3, i % 5), Address((i + 1) % 3, (i + 2) % 5))
        report = net.reconcile("direct")
        assert report.consistent

    def test_conservation_over_mixed_traffic(self):
        net = make_net(compliant=[True, True, False])
        for i in range(100):
            net.send(Address(i % 3, i % 5), Address((i + 1) % 3, (i + 2) % 5))
        assert net.total_value() == net.expected_total_value()

    def test_auto_topup_keeps_user_sending(self):
        config = ZmailConfig(default_user_balance=1, auto_topup_amount=10)
        net = make_net(config=config)
        for _ in range(5):
            receipt = net.send(Address(0, 0), Address(1, 0))
            assert receipt.status is SendStatus.SENT_PAID
        assert net.metrics.counter("topup.count").value >= 1

    def test_topup_disabled_blocks(self):
        config = ZmailConfig(default_user_balance=1, auto_topup_amount=0)
        net = make_net(config=config)
        net.send(Address(0, 0), Address(1, 0))
        receipt = net.send(Address(0, 0), Address(1, 0))
        assert receipt.status is SendStatus.BLOCKED_BALANCE

    def test_fund_user_tracked_in_expected_value(self):
        net = make_net()
        net.fund_user(Address(0, 0), pennies=5000, epennies=300)
        assert net.total_value() == net.expected_total_value()
        assert net.isps[0].ledger.user(0).balance == (
            net.config.default_user_balance + 300
        )

    def test_out_of_range_addresses_rejected(self):
        net = make_net()
        with pytest.raises(SimulationError):
            net.send(Address(9, 0), Address(0, 0))

    @pytest.mark.parametrize(
        "sender, recipient, bad",
        [
            (Address(0, 0), Address(1, 7), "user7@isp1"),
            (Address(0, 9), Address(1, 0), "user9@isp0"),
            (Address(0, -1), Address(1, 0), "user-1@isp0"),
            (Address(0, 0), Address(1, 4), "user4@isp1"),
        ],
    )
    def test_out_of_range_user_ids_rejected(self, sender, recipient, bad):
        """A user id past ``users_per_isp`` (or negative) is refused before
        any ledger moves, so conservation holds."""
        net = ZmailNetwork(n_isps=2, users_per_isp=4, seed=5)
        with pytest.raises(SimulationError, match=bad):
            net.send(sender, recipient)
        assert net.total_value() == net.expected_total_value()
        assert net.send(Address(0, 0), Address(1, 3)).status is SendStatus.SENT_PAID

    def test_make_compliant_updates_directory(self):
        net = make_net(compliant=[True, True, False])
        receipt = net.send(Address(0, 0), Address(2, 0))
        assert receipt.status is SendStatus.SENT_UNPAID
        net.make_compliant(2)
        receipt = net.send(Address(0, 0), Address(2, 0))
        assert receipt.status is SendStatus.SENT_PAID

    def test_converted_isp_draws_nonces_from_the_network_seed(self):
        def first_nonces(seed, compliant):
            net = make_net(seed=seed, compliant=compliant)
            net.make_compliant(1)
            source = net._nonce_sources[1]
            return [source.next() for _ in range(3)]

        converted = first_nonces(1, [True, False, True])
        # The nonces of an ISP compliant from genesis ...
        assert converted == first_nonces(1, [True, True, True])
        # ... and they follow the deployment seed.
        assert converted != first_nonces(2, [True, False, True])

    def test_run_workload_direct(self):
        net = make_net()
        streams = SeededStreams(3)
        workload = NormalUserWorkload(
            n_isps=3, users_per_isp=5, rate_per_day=20.0, streams=streams
        )
        net.run_workload(workload.generate(2 * DAY))
        sent = net.metrics.counter("send.sent_paid").value
        local = net.metrics.counter("send.delivered_local").value
        assert sent + local > 50
        assert net.total_value() == net.expected_total_value()

    def test_midnight_resets_happen_in_workload(self):
        config = ZmailConfig(default_daily_limit=3)
        net = make_net(config=config)
        streams = SeededStreams(3)
        workload = NormalUserWorkload(
            n_isps=3, users_per_isp=5, rate_per_day=30.0, streams=streams
        )
        net.run_workload(workload.generate(3 * DAY))
        # With resets, users keep sending across days despite the tiny limit.
        delivered = (
            net.metrics.counter("send.sent_paid").value
            + net.metrics.counter("send.delivered_local").value
        )
        assert delivered > 3 * 15  # more than one day's quota for everyone


class TestPoolRebalancing:
    def test_deficit_triggers_buy(self):
        config = ZmailConfig(initial_pool=100, minavail=200, maxavail=1000)
        net = make_net(config=config)
        net.rebalance_pools()
        for isp in net.compliant_isps().values():
            assert isp.ledger.pool == 600  # midpoint
        assert net.metrics.counter("bank.buys").value == 3
        assert net.total_value() == net.expected_total_value()

    def test_surplus_triggers_sell(self):
        config = ZmailConfig(initial_pool=5000, minavail=200, maxavail=1000)
        net = make_net(config=config)
        net.rebalance_pools()
        for isp in net.compliant_isps().values():
            assert isp.ledger.pool == 600
        assert net.metrics.counter("bank.sells").value == 3
        assert net.total_value() == net.expected_total_value()

    def test_partial_rebalance_touches_only_subset(self):
        config = ZmailConfig(initial_pool=100, minavail=200, maxavail=1000)
        net = make_net(config=config)
        net.rebalance_pools(isp_ids=[0, 2])
        assert net.isps[0].ledger.pool == 600
        assert net.isps[1].ledger.pool == 100  # untouched
        assert net.isps[2].ledger.pool == 600
        assert net.metrics.counter("bank.buys").value == 2
        assert net.total_value() == net.expected_total_value()

    def test_partial_rebalance_skips_flagged_isp_without_aborting(self):
        """Regression: a bank-flagged ISP in the subset used to abort the
        round (NotCompliant mid-iteration), and on the sell path the pool
        was debited before the bank raised — destroying the surplus."""
        config = ZmailConfig(initial_pool=5000, minavail=200, maxavail=1000)
        net = make_net(config=config)
        state = net.bank.state_dict()  # flagged, as a restored journal
        state["compliant"]["1"] = False
        net.bank.load_state(state)
        net.rebalance_pools(isp_ids=[0, 1, 2])
        assert net.isps[0].ledger.pool == 600
        assert net.isps[1].ledger.pool == 5000  # skipped, value intact
        assert net.isps[2].ledger.pool == 600
        assert net.metrics.counter("bank.sells").value == 2
        assert net.total_value() == net.expected_total_value()

    def test_partial_rebalance_ignores_unknown_and_noncompliant_ids(self):
        config = ZmailConfig(initial_pool=100, minavail=200, maxavail=1000)
        net = make_net(config=config, compliant=[True, True, False])
        net.rebalance_pools(isp_ids=[1, 2, 99])
        assert net.isps[1].ledger.pool == 600
        assert net.metrics.counter("bank.buys").value == 1
        assert net.total_value() == net.expected_total_value()


class TestEngineMode:
    def run_traffic(self, net, engine, n=60):
        for i in range(n):
            net.send(Address(i % 3, i % 5), Address((i + 1) % 3, (i + 2) % 5))
        engine.run()

    def test_letters_travel_with_latency(self):
        engine = Engine()
        net = make_net(engine=engine, link=LinkSpec(base_latency=1.0))
        net.send(Address(0, 0), Address(1, 0))
        assert net.paid_letters_in_flight == 1
        engine.run()
        assert net.paid_letters_in_flight == 0
        assert net.isps[1].ledger.user(0).balance == (
            net.config.default_user_balance + 1
        )

    def test_conservation_with_letters_in_flight(self):
        engine = Engine()
        net = make_net(engine=engine, link=LinkSpec(base_latency=5.0))
        for i in range(10):
            net.send(Address(0, i % 5), Address(1, i % 5))
        assert net.total_value() == net.expected_total_value()  # counts flight
        engine.run()
        assert net.total_value() == net.expected_total_value()

    def test_marker_snapshot_consistent_under_traffic(self):
        engine = Engine()
        net = make_net(engine=engine, link=LinkSpec(base_latency=0.5, jitter=0.4))
        for i in range(50):
            engine.schedule_at(
                i * 0.1,
                lambda i=i: net.send(
                    Address(i % 3, i % 5), Address((i + 1) % 3, (i + 2) % 5)
                ),
            )
        engine.schedule_at(2.0, lambda: net.reconcile("marker"))
        engine.run()
        assert net.last_report is not None
        assert net.last_report.consistent

    def test_timeout_snapshot_consistent_with_generous_window(self):
        engine = Engine()
        config = ZmailConfig(snapshot_quiesce_seconds=30.0)
        net = make_net(
            engine=engine, config=config, link=LinkSpec(base_latency=0.5)
        )
        for i in range(50):
            engine.schedule_at(
                i * 0.1,
                lambda i=i: net.send(
                    Address(i % 3, i % 5), Address((i + 1) % 3, (i + 2) % 5)
                ),
            )
        engine.schedule_at(2.0, lambda: net.reconcile("timeout"))
        engine.run()
        assert net.last_report is not None
        assert net.last_report.consistent

    def test_buffered_sends_flushed_after_snapshot(self):
        engine = Engine()
        net = make_net(engine=engine, link=LinkSpec(base_latency=0.1))
        net.reconcile("marker")
        # While requests are in flight, schedule sends that hit the pause.
        engine.schedule_at(
            0.05, lambda: None
        )  # let requests arrive first at t=0.1
        engine.schedule_at(
            0.15, lambda: net.send(Address(0, 0), Address(1, 0))
        )
        engine.run()
        assert net.last_report is not None
        assert net.isps[1].ledger.user(0).balance == (
            net.config.default_user_balance + 1
        )

    def test_direct_reconcile_rejected_with_mail_in_flight(self):
        engine = Engine()
        net = make_net(engine=engine, link=LinkSpec(base_latency=10.0))
        net.send(Address(0, 0), Address(1, 0))
        with pytest.raises(SimulationError, match="in flight"):
            net.reconcile("direct")

    def test_unknown_method_rejected(self):
        engine = Engine()
        net = make_net(engine=engine)
        with pytest.raises(ValueError, match="unknown snapshot method"):
            net.reconcile("quantum")

    def test_engine_methods_require_engine(self):
        net = make_net()
        with pytest.raises(SimulationError, match="engine mode"):
            net.reconcile("marker")

    def test_run_workload_engine_mode(self):
        net = make_net(engine=Engine())
        with pytest.raises(SimulationError, match="Engine.add_stream"):
            net.run_workload([])

    def test_streamed_workload_engine_mode(self):
        engine = Engine()
        net = make_net(engine=engine, link=LinkSpec(base_latency=0.2))
        streams = SeededStreams(5)
        normal = NormalUserWorkload(
            n_isps=3, users_per_isp=5, rate_per_day=40.0, streams=streams
        )
        spam = SpamCampaignWorkload(
            spammer=Address(0, 0), n_isps=3, users_per_isp=5,
            volume=50, start=0.0, duration=DAY, streams=streams,
        )
        net.fund_user(Address(0, 0), epennies=100)
        stream_workload(
            net, merge_workloads(normal.generate(DAY), spam.generate())
        )
        engine.run(until=1.5 * DAY)
        assert net.total_value() == net.expected_total_value()
        assert net.metrics.counter("send.kind.spam").value == 50
