"""Tests for the FIFO latency/loss network model."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.network import LinkSpec, Network
from repro.sim.rng import SeededStreams


class Sink:
    def __init__(self):
        self.received = []

    def on_message(self, src, payload):
        self.received.append((src, payload))


def make_net(link=None, seed=0):
    engine = Engine()
    net = Network(engine, SeededStreams(seed), default_link=link or LinkSpec())
    return engine, net


class TestDelivery:
    def test_basic_delivery(self):
        engine, net = make_net()
        sink = Sink()
        net.register("a", Sink())
        net.register("b", sink)
        net.send("a", "b", "hello")
        engine.run()
        assert sink.received == [("a", "hello")]
        assert net.messages_delivered == 1

    def test_latency_applied(self):
        engine, net = make_net(LinkSpec(base_latency=2.5))
        sink = Sink()
        net.register("a", Sink())
        net.register("b", sink)
        arrival = []
        sink.on_message = lambda src, p: arrival.append(engine.now)
        net.send("a", "b", "x")
        engine.run()
        assert arrival == [2.5]

    def test_unknown_endpoints_rejected(self):
        _, net = make_net()
        net.register("a", Sink())
        with pytest.raises(SimulationError, match="destination"):
            net.send("a", "nope", "x")
        with pytest.raises(SimulationError, match="source"):
            net.send("nope", "a", "x")

    def test_duplicate_registration_rejected(self):
        _, net = make_net()
        net.register("a", Sink())
        with pytest.raises(SimulationError, match="already registered"):
            net.register("a", Sink())


class TestFIFO:
    def test_fifo_under_jitter(self):
        """Even with random jitter, per-link order must be preserved."""
        engine, net = make_net(LinkSpec(base_latency=0.1, jitter=5.0), seed=3)
        sink = Sink()
        net.register("a", Sink())
        net.register("b", sink)
        for i in range(50):
            net.send("a", "b", i)
        engine.run()
        payloads = [p for _, p in sink.received]
        assert payloads == list(range(50))

    def test_fifo_interleaved_with_time(self):
        engine, net = make_net(LinkSpec(base_latency=1.0, jitter=3.0), seed=9)
        sink = Sink()
        net.register("a", Sink())
        net.register("b", sink)

        def send_batch(start):
            for i in range(start, start + 5):
                net.send("a", "b", i)

        engine.schedule_at(0.0, lambda: send_batch(0))
        engine.schedule_at(0.5, lambda: send_batch(5))
        engine.run()
        payloads = [p for _, p in sink.received]
        assert payloads == list(range(10))

    def test_independent_links_not_ordered(self):
        """FIFO holds per link; cross-link order may interleave freely."""
        engine, net = make_net(LinkSpec(base_latency=0.1))
        sink = Sink()
        net.register("a", Sink())
        net.register("c", Sink())
        net.register("b", sink)
        net.send("a", "b", "from-a")
        net.send("c", "b", "from-c")
        engine.run()
        assert {p for _, p in sink.received} == {"from-a", "from-c"}


class TestLoss:
    def test_lossy_link_drops(self):
        engine, net = make_net(LinkSpec(loss_rate=1.0))
        sink = Sink()
        net.register("a", Sink())
        net.register("b", sink)
        net.send("a", "b", "x")
        engine.run()
        assert sink.received == []
        assert net.messages_dropped == 1

    def test_partial_loss_statistics(self):
        engine, net = make_net(LinkSpec(loss_rate=0.5), seed=11)
        sink = Sink()
        net.register("a", Sink())
        net.register("b", sink)
        for i in range(1000):
            net.send("a", "b", i)
        engine.run()
        assert 350 < net.messages_dropped < 650
        assert net.messages_dropped + net.messages_delivered == 1000

    def test_invalid_loss_rate(self):
        with pytest.raises(SimulationError):
            LinkSpec(loss_rate=1.5)

    def test_negative_latency_rejected(self):
        with pytest.raises(SimulationError):
            LinkSpec(base_latency=-1.0)


class TestAccounting:
    def test_bytes_counted(self):
        engine, net = make_net()
        net.register("a", Sink())
        net.register("b", Sink())
        net.send("a", "b", "x", size=100)
        net.send("a", "b", "y", size=200)
        assert net.bytes_sent == 300
