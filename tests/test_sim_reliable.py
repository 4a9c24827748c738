"""Tests for the reliable-delivery layer, including failure injection
showing why Zmail's credit accounting needs it on lossy links."""

import pytest

from repro.core import DirectSnapshotCoordinator, ZmailNetwork
from repro.errors import SimulationError
from repro.sim import Engine, LinkSpec, Network, SeededStreams
from repro.sim.reliable import ReliableEndpoint
from repro.sim.workload import Address


def make_pair(loss=0.0, seed=0, interval=1.0):
    engine = Engine()
    net = Network(engine, SeededStreams(seed), default_link=LinkSpec(
        base_latency=0.05, loss_rate=loss))
    received = []
    a = ReliableEndpoint("a", net, engine,
                         lambda src, p: received.append((src, p)),
                         retransmit_interval=interval)
    b = ReliableEndpoint("b", net, engine,
                         lambda src, p: received.append((src, p)),
                         retransmit_interval=interval)
    return engine, net, a, b, received


class TestLosslessPath:
    def test_in_order_delivery(self):
        engine, _, a, b, received = make_pair()
        for i in range(20):
            a.send("b", i)
        engine.run(until=100)
        assert [p for _, p in received] == list(range(20))

    def test_no_spurious_retransmissions_when_acked_fast(self):
        engine, _, a, b, received = make_pair(interval=10.0)
        for i in range(5):
            a.send("b", i)
        engine.run(until=100)
        assert a.retransmissions == 0
        assert a.all_delivered()

    def test_bidirectional(self):
        engine, _, a, b, received = make_pair()
        a.send("b", "ping")
        b.send("a", "pong")
        engine.run(until=100)
        assert set(received) == {("a", "ping"), ("b", "pong")}


class TestLossyPath:
    @pytest.mark.parametrize("loss", [0.2, 0.5, 0.8])
    def test_exactly_once_in_order_under_loss(self, loss):
        engine, _, a, b, received = make_pair(loss=loss, seed=3)
        for i in range(50):
            a.send("b", i)
        engine.run(until=10_000)
        assert [p for _, p in received] == list(range(50))
        assert a.all_delivered()
        assert a.retransmissions > 0

    def test_duplicates_are_dropped_not_redelivered(self):
        engine, _, a, b, received = make_pair(loss=0.5, seed=7)
        for i in range(30):
            a.send("b", i)
        engine.run(until=10_000)
        payloads = [p for _, p in received]
        assert payloads == sorted(set(payloads))
        # Retransmission under ack loss necessarily produces duplicates.
        assert b.duplicates_dropped > 0

    def test_gives_up_after_max_retries_on_dead_link(self):
        engine = Engine()
        net = Network(engine, SeededStreams(1),
                      default_link=LinkSpec(loss_rate=1.0))
        a = ReliableEndpoint("a", net, engine, lambda s, p: None,
                             retransmit_interval=0.5, max_retries=5)
        ReliableEndpoint("b", net, engine, lambda s, p: None)
        a.send("b", "doomed")
        with pytest.raises(SimulationError, match="gave up"):
            engine.run(until=1_000)

    def test_validation(self):
        engine = Engine()
        net = Network(engine, SeededStreams(0))
        with pytest.raises(SimulationError):
            ReliableEndpoint("x", net, engine, lambda s, p: None,
                             retransmit_interval=0.0)


class TestZmailNeedsReliability:
    """Failure injection: the paper's §4.4 invariant silently assumes
    reliable channels. Lost paid email -> honest ISPs look like cheaters."""

    def run_with_loss(self, loss):
        engine = Engine()
        net = ZmailNetwork(
            n_isps=3, users_per_isp=5, seed=9, engine=engine,
            link=LinkSpec(base_latency=0.1, loss_rate=loss),
        )
        for i in range(200):
            engine.schedule_at(
                i * 0.05,
                lambda i=i: net.send(
                    Address(i % 3, i % 5), Address((i + 1) % 3, (i + 2) % 5)
                ),
            )
        engine.run()
        # The bank collects the credit arrays directly: its control links
        # are authenticated RPC, so only the mail paths lose messages.
        return DirectSnapshotCoordinator(net.bank, net.compliant_isps()).run()

    def test_lossless_links_reconcile_cleanly(self):
        assert self.run_with_loss(0.0).consistent

    def test_lossy_links_false_alarm_honest_isps(self):
        report = self.run_with_loss(0.3)
        assert not report.consistent  # honest ISPs flagged!

    def test_reliable_layer_restores_the_invariant(self):
        """Same loss rate, but letters ride the reliable layer."""
        engine = Engine()
        raw = Network(engine, SeededStreams(11),
                      default_link=LinkSpec(base_latency=0.05, loss_rate=0.3))
        net = ZmailNetwork(n_isps=3, users_per_isp=5, seed=11)  # direct core

        # Reliable endpoints carry (sender, recipient) tuples between ISPs;
        # on delivery we drive the *direct-mode* deliver path, so the Zmail
        # accounting sees exactly-once arrivals despite the lossy wire.
        endpoints = {}

        def deliver(src, payload):
            letter = payload
            net.isps[letter.dst_isp].deliver(letter)

        for i in range(3):
            endpoints[i] = ReliableEndpoint(
                f"r{i}", raw, engine, deliver, retransmit_interval=0.5
            )

        for i in range(200):
            sender = Address(i % 3, i % 5)
            recipient = Address((i + 1) % 3, (i + 2) % 5)
            receipt = net.isps[sender.isp].submit(
                sender.user, recipient, __import__(
                    "repro.sim.workload", fromlist=["TrafficKind"]
                ).TrafficKind.NORMAL,
            )
            if receipt.letter is not None:
                endpoints[sender.isp].send(f"r{recipient.isp}", receipt.letter)
        engine.run(until=10_000)
        assert all(e.all_delivered() for e in endpoints.values())
        assert net.reconcile("direct").consistent


class TestLifecycle:
    """Crash/restart semantics: close() must cancel retransmit timers."""

    def test_close_cancels_retransmit_timers(self):
        engine, _, a, b, _ = make_pair(loss=1.0, seed=1)
        for i in range(5):
            a.send("b", i)
        assert engine.pending > 0
        a.close()
        # The only pending events were a's retransmit timers (total loss
        # means no deliveries are in flight); all must be cancelled.
        assert engine.pending == 0

    def test_no_timer_fires_into_closed_endpoint(self):
        engine, _, a, b, received = make_pair(loss=1.0, seed=2)
        a.send("b", 0)
        frames_before = a.frames_sent
        a.close()
        engine.run(until=1_000)
        # A dead process retransmits nothing.
        assert a.frames_sent == frames_before
        assert received == []

    def test_send_on_closed_endpoint_raises(self):
        engine, _, a, b, _ = make_pair()
        a.close()
        with pytest.raises(SimulationError, match="closed"):
            a.send("b", 0)

    def test_closed_endpoint_drops_incoming_frames(self):
        engine, _, a, b, received = make_pair()
        b.close()
        a.send("b", "lost-on-arrival")
        engine.run(until=2)
        assert received == []
        assert b.frames_dropped_closed > 0
        # The sender keeps the frame queued (no ack came back).
        assert not a.all_delivered()

    def test_reopen_resumes_retransmission_and_delivers(self):
        engine, _, a, b, received = make_pair()
        b.close()
        for i in range(3):
            a.send("b", i)
        engine.run(until=5)
        assert received == []
        b.reopen()
        engine.run(until=100)
        assert [p for _, p in received] == [0, 1, 2]
        assert a.all_delivered()

    def test_close_is_idempotent_and_reopen_noop_when_open(self):
        engine, _, a, b, _ = make_pair()
        a.close()
        a.close()
        a.reopen()
        a.reopen()
        a.send("b", 0)
        engine.run(until=10)
        assert a.all_delivered()


class TestBackoff:
    def test_backoff_grows_retransmit_spacing(self):
        engine = Engine()
        net = Network(engine, SeededStreams(5), default_link=LinkSpec(
            base_latency=0.05, loss_rate=1.0))
        a = ReliableEndpoint("a", net, engine, lambda s, p: None,
                             retransmit_interval=1.0, backoff=2.0,
                             max_retries=None)
        ReliableEndpoint("b", net, engine, lambda s, p: None)
        a.send("b", 0)
        engine.run(until=14.9)
        # Retransmits at 1, 3, 7, 15... => 3 within t<15 under backoff;
        # a fixed interval would have produced 14.
        assert a.retransmissions == 3

    def test_max_interval_caps_backoff(self):
        engine = Engine()
        net = Network(engine, SeededStreams(5), default_link=LinkSpec(
            base_latency=0.05, loss_rate=1.0))
        a = ReliableEndpoint("a", net, engine, lambda s, p: None,
                             retransmit_interval=1.0, backoff=2.0,
                             max_interval=2.0, max_retries=None)
        ReliableEndpoint("b", net, engine, lambda s, p: None)
        a.send("b", 0)
        engine.run(until=20.9)
        # 1, then capped at 2: fires at 1, 3, 5, ..., 19 => 10 rounds.
        assert a.retransmissions == 10

    def test_gives_up_after_max_retries(self):
        engine = Engine()
        net = Network(engine, SeededStreams(5), default_link=LinkSpec(
            base_latency=0.05, loss_rate=1.0))
        a = ReliableEndpoint("a", net, engine, lambda s, p: None,
                             retransmit_interval=0.5, max_retries=3)
        ReliableEndpoint("b", net, engine, lambda s, p: None)
        a.send("b", 0)
        with pytest.raises(SimulationError, match="gave up after 3"):
            engine.run(until=1_000)

    def test_ack_progress_resets_retry_count(self):
        engine, net, a, b, received = make_pair(loss=0.4, seed=11)
        # Under 40% loss with max_retries=3 per *consecutive* silent
        # round, delivery still converges because each ack resets the
        # counter; without the reset, total retransmissions would exceed
        # the cap long before 30 frames drained.
        a.max_retries = 3
        for i in range(30):
            a.send("b", i)
        engine.run(until=10_000)
        assert [p for _, p in received] == list(range(30))
        assert a.retransmissions > 3
