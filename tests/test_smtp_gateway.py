"""Tests for the full ISP SMTP gateway: stamping, verification, acks."""

import pytest

from repro.core import SendStatus, ZmailConfig, ZmailNetwork
from repro.errors import SMTPPermanentError
from repro.obs.trace import ListSink, TraceRecorder
from repro.sim.workload import Address
from repro.smtp import (
    Envelope,
    InMemoryTransport,
    MailMessage,
    ZmailStamp,
    from_sim_address,
    stamp_message,
)
from repro.smtp.gateway import ZmailGateway


def build_deployment(n_isps=3, compliant=None, tracer=None, **config_kwargs):
    """A network of gateways over one in-memory transport."""
    config = ZmailConfig(**config_kwargs) if config_kwargs else None
    net = ZmailNetwork(
        n_isps=n_isps, users_per_isp=5, compliant=compliant,
        config=config, seed=50, tracer=tracer,
    )
    transport = InMemoryTransport()
    gateways = {}
    for isp_id in net.compliant_isps():
        gateway = ZmailGateway(net, isp_id, transport)
        transport.register_domain(gateway.domain, gateway.handle_inbound)
        gateways[isp_id] = gateway
    return net, transport, gateways


def counted(net, name):
    return net.metrics.snapshot()["counters"].get(f"gateway.{name}", 0)


def delivered(net):
    return counted(net, "delivered_inbound")


def inbound_outcomes(sink):
    return [e["outcome"] for e in sink.events() if e["type"] == "gateway.inbound"]


def plain_message(sender: Address, recipient: Address, subject="s"):
    return MailMessage.compose(
        sender=str(from_sim_address(sender)),
        recipient=str(from_sim_address(recipient)),
        subject=subject,
        body="hello",
    )


class TestOutboundInbound:
    def test_cross_isp_mail_files_and_pays(self):
        net, _, gateways = build_deployment()
        sender, recipient = Address(0, 1), Address(1, 2)
        status = gateways[0].submit_outbound(
            1, recipient, plain_message(sender, recipient)
        )
        assert status is SendStatus.SENT_PAID
        assert delivered(net) == 1
        user = net.isps[1].ledger.user(2)
        assert user.inbox == user.lifetime_received_paid == 1
        assert user.balance == net.config.default_user_balance + 1

    def test_local_mail_stays_local(self):
        net, transport, gateways = build_deployment()
        sender, recipient = Address(0, 1), Address(0, 2)
        status = gateways[0].submit_outbound(
            1, recipient, plain_message(sender, recipient)
        )
        assert status is SendStatus.DELIVERED_LOCAL
        assert transport.delivered == 0  # never hit the wire
        assert net.isps[0].ledger.user(2).inbox == 1

    def test_blocked_send_never_reaches_wire(self):
        net, transport, gateways = build_deployment(
            default_user_balance=0, auto_topup_amount=0
        )
        sender, recipient = Address(0, 1), Address(1, 2)
        status = gateways[0].submit_outbound(
            1, recipient, plain_message(sender, recipient)
        )
        assert status is SendStatus.BLOCKED_BALANCE
        assert transport.delivered == 0
        assert counted(net, "rejected_sends") == 1

    def test_messages_carry_valid_stamp(self):
        from repro.smtp import read_stamp

        net, transport, gateways = build_deployment()
        seen = []

        def handler(envelope):
            seen.append(envelope)
            return gateways[1].handle_inbound(envelope)

        transport.register_domain(gateways[1].domain, handler)
        gateways[0].submit_outbound(
            1, Address(1, 2), plain_message(Address(0, 1), Address(1, 2))
        )
        (envelope,) = seen
        stamp = read_stamp(envelope.message)
        assert stamp is not None and stamp.sender_isp == "isp0"

    def test_wrong_domain_rejected(self):
        net, _, gateways = build_deployment()
        envelope = Envelope(
            "user0@isp0.example", "user0@isp2.example", MailMessage()
        )
        with pytest.raises(SMTPPermanentError):
            gateways[1].handle_inbound(envelope)

    def test_noncompliant_origin_goes_to_junk_unpaid(self):
        sink = ListSink()
        net, transport, gateways = build_deployment(
            compliant=[True, True, False], tracer=TraceRecorder(sink=sink)
        )
        message = plain_message(Address(2, 0), Address(0, 1))
        envelope = Envelope(
            str(from_sim_address(Address(2, 0))),
            str(from_sim_address(Address(0, 1))),
            message,
        )
        assert gateways[0].handle_inbound(envelope)
        assert delivered(net) == 1
        assert inbound_outcomes(sink) == ["junk"]
        # Unpaid: no e-penny moved to the recipient.
        user = net.isps[0].ledger.user(1)
        assert user.lifetime_received_paid == 0
        assert user.balance == net.config.default_user_balance


class TestForgery:
    def test_forged_stamp_rejected(self):
        """A non-compliant sender claiming a compliant ISP's stamp."""
        net, _, gateways = build_deployment(compliant=[True, True, False])
        message = stamp_message(
            plain_message(Address(2, 0), Address(0, 1)),
            ZmailStamp(sender_isp="isp1"),  # lie: claims to be isp1
        )
        envelope = Envelope(
            str(from_sim_address(Address(2, 0))),
            str(from_sim_address(Address(0, 1))),
            message,
        )
        assert not gateways[0].handle_inbound(envelope)
        assert counted(net, "forged_rejected") == 1
        assert delivered(net) == 0


class TestMailingListAcks:
    def test_list_message_auto_acked(self):
        net, transport, gateways = build_deployment()
        distributor, subscriber = Address(0, 0), Address(1, 3)
        net.fund_user(distributor, epennies=100)
        before = net.isps[0].ledger.user(0).balance

        status = gateways[0].submit_outbound(
            0, subscriber,
            plain_message(distributor, subscriber, subject="newsletter"),
            list_token="post-1",
        )
        assert status is SendStatus.SENT_PAID
        # The subscriber's gateway auto-acked: e-penny returned.
        assert counted(net, "acks_sent") == 1
        assert counted(net, "acks_absorbed") == 1
        assert net.isps[0].ledger.user(0).balance == before
        # The list message reached the subscriber; the ack was absorbed
        # and never delivered to a human inbox.
        assert net.isps[1].ledger.user(3).inbox == 1
        assert delivered(net) == 1

    def test_normal_mail_not_acked(self):
        net, _, gateways = build_deployment()
        gateways[0].submit_outbound(
            1, Address(1, 2), plain_message(Address(0, 1), Address(1, 2))
        )
        assert counted(net, "acks_sent") == 0

    def test_conservation_through_gateway_traffic(self):
        net, _, gateways = build_deployment()
        net.fund_user(Address(0, 0), epennies=50)
        for i in range(20):
            gateways[0].submit_outbound(
                0, Address(1, i % 5),
                plain_message(Address(0, 0), Address(1, i % 5)),
                list_token=f"t{i}",
            )
        assert net.total_value() == net.expected_total_value()

    def test_compliance_check_on_construction(self):
        net = ZmailNetwork(
            n_isps=2, users_per_isp=3, compliant=[True, False], seed=1
        )
        with pytest.raises(ValueError, match="not compliant"):
            ZmailGateway(net, 1, InMemoryTransport())


class TestGatewayBackpressure:
    def _overloaded_deployment(self, tracer=None, **overrides):
        from repro.core.overload import OverloadConfig

        defaults = dict(
            admit_rate=1.0, admit_burst=2, queue_capacity=3,
            retry_base=1.0, retry_backoff=2.0, retry_max_interval=8.0,
            max_retries=2,
        )
        defaults.update(overrides)
        config = OverloadConfig(**defaults)
        net = ZmailNetwork(n_isps=2, users_per_isp=5, seed=50, tracer=tracer)
        transport = InMemoryTransport()
        now = [0.0]
        gateways = {}
        for isp_id in net.compliant_isps():
            gateway = ZmailGateway(
                net, isp_id, transport, overload=config, clock=lambda: now[0]
            )
            transport.register_domain(gateway.domain, gateway.handle_inbound)
            gateways[isp_id] = gateway
        return net, now, gateways

    def test_overload_without_clock_is_refused(self):
        from repro.core.overload import OverloadConfig

        net = ZmailNetwork(n_isps=2, users_per_isp=3, seed=1)
        with pytest.raises(ValueError, match="needs a clock"):
            ZmailGateway(
                net, 0, InMemoryTransport(), overload=OverloadConfig()
            )

    def test_saturation_defers_then_sheds(self):
        net, _, gateways = self._overloaded_deployment()
        recipient = Address(1, 2)
        message = plain_message(Address(0, 1), recipient)
        statuses = [
            gateways[0].submit_outbound(1, recipient, message)
            for _ in range(7)
        ]
        assert statuses[:2] == [SendStatus.SENT_PAID] * 2
        assert statuses[2:5] == [SendStatus.DEFERRED] * 3
        assert statuses[5:] == [SendStatus.SHED] * 2
        assert gateways[0].pending_sends == 3
        assert counted(net, "shed") == 2
        # Shed and deferred submissions never touched the ledger.
        assert net.total_value() == net.expected_total_value()

    def test_pump_delivers_deferred_mail(self):
        net, now, gateways = self._overloaded_deployment()
        recipient = Address(1, 2)
        message = plain_message(Address(0, 1), recipient)
        for _ in range(4):
            gateways[0].submit_outbound(1, recipient, message)
        while gateways[0].pending_sends and now[0] < 60.0:
            now[0] += 1.0
            gateways[0].pump()
        assert gateways[0].pending_sends == 0
        assert counted(net, "bounced") == 0
        # All four eventually reached the recipient's inbox.
        assert net.isps[1].ledger.user(2).inbox == 4
        assert net.total_value() == net.expected_total_value()

    def test_exhausted_retries_bounce_counted_and_traced(self):
        sink = ListSink()
        net, now, gateways = self._overloaded_deployment(
            TraceRecorder(sink=sink), admit_rate=0.001, admit_burst=1,
            max_retries=1,
        )
        recipient = Address(1, 2)
        message = plain_message(Address(0, 1), recipient, subject="doomed")
        assert (
            gateways[0].submit_outbound(1, recipient, message)
            is SendStatus.SENT_PAID
        )
        assert (
            gateways[0].submit_outbound(1, recipient, message)
            is SendStatus.DEFERRED
        )
        while gateways[0].pending_sends and now[0] < 200.0:
            now[0] += 1.0
            gateways[0].pump()
        assert counted(net, "bounced") == 1
        bounces = [e for e in sink.events() if e["type"] == "gateway.bounce"]
        assert [e["recipient"] for e in bounces] == ["user2@isp1.example"]
        # The bounced message never reached the recipient, and no notice
        # reached the sender.
        assert net.isps[1].ledger.user(2).inbox == 1
        assert net.isps[0].ledger.user(1).inbox == 0
        assert net.total_value() == net.expected_total_value()

    def test_clock_callable_drives_admission_time(self):
        from repro.core.overload import OverloadConfig

        now = [0.0]
        net = ZmailNetwork(n_isps=2, users_per_isp=5, seed=50)
        transport = InMemoryTransport()
        gateway = ZmailGateway(
            net, 0, transport,
            overload=OverloadConfig(admit_rate=1.0, admit_burst=1),
            clock=lambda: now[0],
        )
        transport.register_domain(gateway.domain, gateway.handle_inbound)
        peer = ZmailGateway(net, 1, transport)
        transport.register_domain(peer.domain, peer.handle_inbound)
        recipient = Address(1, 2)
        message = plain_message(Address(0, 1), recipient)
        assert (
            gateway.submit_outbound(1, recipient, message)
            is SendStatus.SENT_PAID
        )
        assert (
            gateway.submit_outbound(1, recipient, message)
            is SendStatus.DEFERRED
        )
        now[0] = 10.0  # tokens refill through the external clock
        gateway.pump()
        assert gateway.pending_sends == 0
        counters = net.metrics.snapshot()["counters"]
        assert counters["gateway.deferred"] == 1
        assert counters["gateway.submitted"] == 2

    def test_counters_exported_via_metrics(self):
        net, _, gateways = self._overloaded_deployment()
        recipient = Address(1, 2)
        message = plain_message(Address(0, 1), recipient)
        for _ in range(7):
            gateways[0].submit_outbound(1, recipient, message)
        counters = net.metrics.snapshot()["counters"]
        assert counters["gateway.shed"] == 2
        assert counters["gateway.deferred"] == 3
        assert counters["gateway.submitted"] == 2
        assert counters["gateway.delivered_inbound"] == 2

    def test_no_overload_config_is_passthrough(self):
        net, _, gateways = build_deployment()
        assert gateways[0].pending_sends == 0
        assert gateways[0].pump() == 0
        recipient = Address(1, 2)
        for _ in range(7):
            gateways[0].submit_outbound(1, recipient,
                                        plain_message(Address(0, 1), recipient))
        counters = net.metrics.snapshot()["counters"]
        assert counters["gateway.submitted"] == 7
        assert counters["gateway.deferred"] == counters["gateway.shed"] == 0
        assert gateways[0].pending_sends == 0
