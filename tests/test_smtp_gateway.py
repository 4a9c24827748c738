"""Tests for the full ISP SMTP gateway: stamping, verification, acks."""

import pytest

from repro.core import SendStatus, ZmailConfig, ZmailNetwork
from repro.errors import SMTPPermanentError
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


def build_deployment(n_isps=3, compliant=None, **config_kwargs):
    """A network of gateways over one in-memory transport."""
    config = ZmailConfig(**config_kwargs) if config_kwargs else None
    net = ZmailNetwork(
        n_isps=n_isps, users_per_isp=5, compliant=compliant,
        config=config, seed=50,
    )
    transport = InMemoryTransport()
    gateways = {}
    for isp_id in net.compliant_isps():
        gateway = ZmailGateway(net, isp_id, transport)
        transport.register_domain(gateway.domain, gateway.handle_inbound)
        gateways[isp_id] = gateway
    return net, transport, gateways


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
        box = gateways[1].mailbox(2)
        assert len(box.inbox) == 1
        assert box.inbox[0].paid
        assert net.isps[1].ledger.user(2).balance == (
            net.config.default_user_balance + 1
        )

    def test_local_mail_stays_local(self):
        net, transport, gateways = build_deployment()
        sender, recipient = Address(0, 1), Address(0, 2)
        status = gateways[0].submit_outbound(
            1, recipient, plain_message(sender, recipient)
        )
        assert status is SendStatus.DELIVERED_LOCAL
        assert transport.delivered == 0  # never hit the wire
        assert len(gateways[0].mailbox(2).inbox) == 1

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
        assert gateways[0].rejected_sends == 1

    def test_messages_carry_valid_stamp(self):
        from repro.smtp import read_stamp

        net, _, gateways = build_deployment()
        gateways[0].submit_outbound(
            1, Address(1, 2), plain_message(Address(0, 1), Address(1, 2))
        )
        record = gateways[1].mailbox(2).inbox[0]
        stamp = read_stamp(record.envelope.message)
        assert stamp is not None and stamp.sender_isp == "isp0"

    def test_wrong_domain_rejected(self):
        net, _, gateways = build_deployment()
        envelope = Envelope(
            "user0@isp0.example", "user0@isp2.example", MailMessage()
        )
        with pytest.raises(SMTPPermanentError):
            gateways[1].handle_inbound(envelope)

    def test_noncompliant_origin_goes_to_junk_unpaid(self):
        net, transport, gateways = build_deployment(
            compliant=[True, True, False]
        )
        message = plain_message(Address(2, 0), Address(0, 1))
        envelope = Envelope(
            str(from_sim_address(Address(2, 0))),
            str(from_sim_address(Address(0, 1))),
            message,
        )
        assert gateways[0].handle_inbound(envelope)
        box = gateways[0].mailbox(1)
        assert len(box.junk) == 1
        assert not box.junk[0].paid


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
        assert gateways[0].forged_rejected == 1
        assert len(gateways[0].mailbox(1)) == 0


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
        assert gateways[1].acks_sent == 1
        assert gateways[0].acks_absorbed == 1
        assert net.isps[0].ledger.user(0).balance == before
        # The ack never reached a human inbox.
        assert len(gateways[0].mailbox(0)) == 0
        # The list message itself did reach the subscriber.
        assert len(gateways[1].mailbox(3).inbox) == 1

    def test_normal_mail_not_acked(self):
        net, _, gateways = build_deployment()
        gateways[0].submit_outbound(
            1, Address(1, 2), plain_message(Address(0, 1), Address(1, 2))
        )
        assert gateways[1].acks_sent == 0

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
    def _overloaded_deployment(self, **overrides):
        from repro.core.overload import OverloadConfig

        defaults = dict(
            admit_rate=1.0, admit_burst=2, queue_capacity=3,
            retry_base=1.0, retry_backoff=2.0, retry_max_interval=8.0,
            max_retries=2,
        )
        defaults.update(overrides)
        config = OverloadConfig(**defaults)
        net = ZmailNetwork(n_isps=2, users_per_isp=5, seed=50)
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
        assert gateways[0].shed_sends == 2
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
        assert gateways[0].bounced_sends == 0
        # All four eventually reached the recipient's inbox.
        assert len(gateways[1].mailbox(2).inbox) == 4
        assert net.total_value() == net.expected_total_value()

    def test_exhausted_retries_bounce_with_dsn(self):
        net, now, gateways = self._overloaded_deployment(
            admit_rate=0.001, admit_burst=1, max_retries=1,
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
        assert gateways[0].bounced_sends == 1
        # The DSN notice lands in the *sender's* inbox.
        notices = [
            r for r in gateways[0].mailbox(1).inbox
            if r.envelope.message.subject.startswith("Undeliverable")
        ]
        assert len(notices) == 1
        body = notices[0].envelope.message.body
        assert "doomed" in body
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
        assert gateway.admission_stats()["accepted"] == 2

    def test_counters_exported_via_metrics(self):
        net, _, gateways = self._overloaded_deployment()
        recipient = Address(1, 2)
        message = plain_message(Address(0, 1), recipient)
        for _ in range(7):
            gateways[0].submit_outbound(1, recipient, message)
        counters = net.metrics.snapshot()["counters"]
        assert counters["gateway.shed"] == gateways[0].shed_sends == 2
        assert counters["gateway.deferred"] == 3
        assert counters["gateway.submitted"] == 2
        assert counters["gateway.delivered_inbound"] == 2

    def test_no_overload_config_is_passthrough(self):
        net, _, gateways = build_deployment()
        assert gateways[0].pending_sends == 0
        assert gateways[0].pump() == 0
        assert gateways[0].admission_stats()["attempts"] == 0
        assert gateways[0].next_retry_due() is None
