"""Tests for the in-memory transport and the X-Zmail header binding."""

import pytest

from repro.errors import SMTPPermanentError
from repro.smtp.message import MailMessage
from repro.smtp.transport import Envelope, InMemoryTransport
from repro.smtp.zmail_headers import (
    CLASS_ACK,
    CLASS_NORMAL,
    H_LIST_TOKEN,
    H_SENDER_ISP,
    ZmailStamp,
    is_ack,
    make_ack_message,
    read_stamp,
    stamp_message,
)


def make_message(**kwargs):
    defaults = dict(
        sender="a@isp0.example", recipient="b@isp1.example",
        subject="s", body="b",
    )
    defaults.update(kwargs)
    return MailMessage.compose(**defaults)


class TestInMemoryTransport:
    def test_routes_by_domain(self):
        transport = InMemoryTransport()
        inbox_x, inbox_y = [], []
        transport.register_domain("x.example", inbox_x.append)
        transport.register_domain("y.example", inbox_y.append)
        transport.submit(Envelope("a@z", "u@x.example", make_message()))
        transport.submit(Envelope("a@z", "u@Y.EXAMPLE", make_message()))
        assert len(inbox_x) == 1 and len(inbox_y) == 1

    def test_unroutable_domain_rejected(self):
        transport = InMemoryTransport()
        with pytest.raises(SMTPPermanentError, match="550"):
            transport.submit(Envelope("a@z", "u@nowhere.example", make_message()))
        assert transport.rejected == 1

    def test_counters(self):
        transport = InMemoryTransport()
        transport.register_domain("x.example", lambda e: None)
        for _ in range(3):
            transport.submit(Envelope("a@z", "u@x.example", make_message()))
        assert transport.delivered == 3


class TestZmailStamp:
    def test_stamp_and_read(self):
        msg = stamp_message(make_message(), ZmailStamp(sender_isp="isp0"))
        stamp = read_stamp(msg)
        assert stamp is not None
        assert stamp.sender_isp == "isp0"
        assert stamp.message_class == CLASS_NORMAL
        assert stamp.list_token is None

    def test_stamp_does_not_mutate_original(self):
        original = make_message()
        stamp_message(original, ZmailStamp(sender_isp="isp0"))
        assert read_stamp(original) is None

    def test_sender_supplied_stamps_replaced(self):
        """A forged inbound stamp must not survive restamping."""
        forged = make_message(
            extra_headers={H_SENDER_ISP: "isp-forged", "X-Zmail-Version": "1"}
        )
        restamped = stamp_message(forged, ZmailStamp(sender_isp="isp-true"))
        assert read_stamp(restamped).sender_isp == "isp-true"
        values = [v for k, v in restamped.headers
                  if k.lower() == H_SENDER_ISP.lower()]
        assert values == ["isp-true"]

    def test_unstamped_message_reads_none(self):
        assert read_stamp(make_message()) is None

    def test_list_token_round_trip(self):
        msg = stamp_message(
            make_message(),
            ZmailStamp(sender_isp="isp0", list_token="tok-42"),
        )
        assert read_stamp(msg).list_token == "tok-42"

    def test_token_removed_when_absent(self):
        with_token = stamp_message(
            make_message(), ZmailStamp(sender_isp="isp0", list_token="t")
        )
        without = stamp_message(with_token, ZmailStamp(sender_isp="isp0"))
        assert read_stamp(without).list_token is None

    def test_stamp_survives_serialization(self):
        msg = stamp_message(
            make_message(), ZmailStamp(sender_isp="isp7", message_class=CLASS_ACK)
        )
        parsed = MailMessage.parse(msg.serialize())
        stamp = read_stamp(parsed)
        assert stamp.sender_isp == "isp7"
        assert stamp.message_class == CLASS_ACK


class TestAckMessages:
    def test_make_ack_echoes_token(self):
        original = make_message(
            extra_headers={H_LIST_TOKEN: "post-9", "X-Zmail-Version": "1"}
        )
        ack = make_ack_message(
            original,
            ack_sender="b@isp1.example",
            distributor="list@isp0.example",
        )
        assert is_ack(ack)
        assert ack.headers.get(H_LIST_TOKEN) == "post-9"
        assert ack.headers.get("To") == "list@isp0.example"
        assert ack.subject.startswith("Ack:")

    def test_normal_message_is_not_ack(self):
        assert not is_ack(make_message())

    def test_ack_of_tokenless_message(self):
        ack = make_ack_message(
            make_message(), ack_sender="b@y", distributor="d@x"
        )
        assert ack.headers.get(H_LIST_TOKEN) == ""
