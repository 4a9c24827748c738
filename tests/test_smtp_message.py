"""Tests for the RFC 822-subset message model."""

import pytest

from repro.errors import SMTPProtocolError
from repro.smtp.message import Headers, MailMessage


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers()
        headers.add("Subject", "Hello")
        assert headers.get("subject") == "Hello"
        assert headers.get("SUBJECT") == "Hello"

    def test_order_preserved(self):
        headers = Headers()
        headers.add("B", "2")
        headers.add("A", "1")
        assert list(headers) == [("B", "2"), ("A", "1")]

    def test_multimap_semantics(self):
        headers = Headers()
        headers.add("Received", "hop1")
        headers.add("Received", "hop2")
        assert headers.get("Received") == "hop1"
        assert list(headers) == [("Received", "hop1"), ("Received", "hop2")]

    def test_replace(self):
        headers = Headers()
        headers.add("X", "1")
        headers.add("X", "2")
        headers.replace("x", "3")
        assert list(headers) == [("x", "3")]

    def test_remove_returns_count(self):
        headers = Headers()
        headers.add("X", "1")
        headers.add("X", "2")
        assert headers.remove("x") == 2
        assert "X" not in headers

    def test_newline_injection_rejected(self):
        headers = Headers()
        with pytest.raises(SMTPProtocolError, match="newline"):
            headers.add("Subject", "a\r\nBcc: evil@example.com")
        with pytest.raises(SMTPProtocolError, match="newline"):
            headers.add("Bad\nName", "v")

    def test_copy_is_independent(self):
        headers = Headers()
        headers.add("X", "1")
        clone = headers.copy()
        clone.add("Y", "2")
        assert "Y" not in headers

    def test_get_default(self):
        assert Headers().get("missing", "dflt") == "dflt"
        assert Headers().get("missing") is None


class TestMailMessage:
    def test_compose(self):
        msg = MailMessage.compose(
            sender="a@x.example",
            recipient="b@y.example",
            subject="Hi",
            body="line1\nline2",
            extra_headers={"X-Zmail-Version": "1"},
        )
        assert msg.sender == "a@x.example"
        assert msg.recipient == "b@y.example"
        assert msg.subject == "Hi"
        assert msg.headers.get("X-Zmail-Version") == "1"

    def test_serialize_crlf(self):
        msg = MailMessage.compose(
            sender="a@x", recipient="b@y", subject="S", body="one\ntwo"
        )
        wire = msg.serialize()
        assert "\r\n\r\n" in wire
        assert wire.endswith("one\r\ntwo")
        assert "\n" not in wire.replace("\r\n", "")

    def test_parse_round_trip(self):
        original = MailMessage.compose(
            sender="a@x.example", recipient="b@y.example",
            subject="Round trip", body="body text\nsecond line",
        )
        parsed = MailMessage.parse(original.serialize())
        assert parsed.sender == original.sender
        assert parsed.subject == original.subject
        assert parsed.body.replace("\r\n", "\n") == "body text\nsecond line"

    def test_parse_accepts_lf(self):
        parsed = MailMessage.parse("From: a@x\nTo: b@y\n\nhello")
        assert parsed.sender == "a@x"
        assert parsed.body == "hello"

    def test_parse_unfolds_continuations(self):
        raw = "Subject: first\r\n part\r\nFrom: a@x\r\n\r\nbody"
        parsed = MailMessage.parse(raw)
        assert parsed.subject == "first part"

    def test_parse_malformed_header(self):
        with pytest.raises(SMTPProtocolError, match="malformed"):
            MailMessage.parse("NoColonHere\r\n\r\nbody")

    def test_parse_continuation_before_header(self):
        with pytest.raises(SMTPProtocolError, match="continuation"):
            MailMessage.parse(" leading continuation\r\n\r\nbody")

    def test_empty_body(self):
        parsed = MailMessage.parse("From: a@x\r\n\r\n")
        assert parsed.body == ""

    def test_copy_independent(self):
        msg = MailMessage.compose(sender="a@x", recipient="b@y")
        clone = msg.copy()
        clone.headers.add("X-New", "1")
        clone.body = "changed"
        assert "X-New" not in msg.headers
        assert msg.body == ""

    def test_missing_standard_headers_default_empty(self):
        msg = MailMessage()
        assert msg.sender == ""
        assert msg.recipient == ""
        assert msg.subject == ""
