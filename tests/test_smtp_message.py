"""Tests for the RFC 822-subset message model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SMTPProtocolError
from repro.smtp.message import Headers, MailMessage
from repro.smtp.zmail_headers import (
    H_CLASS,
    H_LIST_TOKEN,
    H_SENDER_ISP,
    H_VERSION,
    ZmailStamp,
    stamp_message,
)

#: A few names, each in several casings, so lookups must fold case.
_BASE_NAMES = ("Subject", "X-Tag", H_VERSION, H_SENDER_ISP, H_CLASS, H_LIST_TOKEN)
_NAMES = st.sampled_from(_BASE_NAMES).flatmap(
    lambda name: st.lists(st.booleans(), min_size=len(name), max_size=len(name))
    .map(lambda upper: "".join(
        c.upper() if u else c.lower() for c, u in zip(name, upper)
    ))
)
_VALUES = st.text("abc 1", max_size=3)
_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "replace", "get", "in"]),
              _NAMES, _VALUES),
    max_size=30,
)


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

    def test_without_is_an_independent_copy(self):
        headers = Headers()
        headers.add("X", "1")
        headers.add("Drop", "2")
        clone = headers.without({"drop"})
        clone.add("Y", "3")
        assert list(clone) == [("X", "1"), ("Y", "3")]
        assert list(headers) == [("X", "1"), ("Drop", "2")]

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
        assert msg.headers.get("From") == "a@x.example"
        assert msg.headers.get("To") == "b@y.example"
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
        assert parsed.headers.get("From") == original.headers.get("From")
        assert parsed.subject == original.subject
        assert parsed.body.replace("\r\n", "\n") == "body text\nsecond line"

    def test_parse_accepts_lf(self):
        parsed = MailMessage.parse("From: a@x\nTo: b@y\n\nhello")
        assert parsed.headers.get("From") == "a@x"
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

    def test_missing_standard_headers_default_empty(self):
        msg = MailMessage()
        assert msg.headers.get("From") is None
        assert msg.subject == ""


def _scan_get(items, name):
    """The reference lookup: lower-case every name on every call."""
    for key, value in items:
        if key.lower() == name.lower():
            return value
    return None


class TestHeadersProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_OPS)
    def test_ops_agree_with_a_lower_casing_scan(self, ops):
        headers, model = Headers(), []
        for op, name, value in ops:
            if op == "add":
                headers.add(name, value)
                model.append((name, value))
            elif op in ("remove", "replace"):
                kept = [(k, v) for k, v in model if k.lower() != name.lower()]
                if op == "remove":
                    assert headers.remove(name) == len(model) - len(kept)
                else:
                    headers.replace(name, value)
                    kept.append((name, value))
                model = kept
            elif op == "get":
                assert headers.get(name) == _scan_get(model, name)
            else:
                assert (name in headers) == (_scan_get(model, name) is not None)
            assert list(headers) == model
            assert len(headers) == len(model)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(_NAMES, _VALUES), max_size=8),
        st.sampled_from(["isp0", "isp3"]),
        st.sampled_from(["normal", "ack"]),
        st.one_of(st.none(), st.sampled_from(["t1", "post-9"])),
    )
    def test_one_pass_stamp_matches_replace_per_header(
        self, fields, sender_isp, message_class, token
    ):
        message = MailMessage(body="hello")
        for name, value in fields:
            message.headers.add(name, value)
        wire = message.serialize()
        stamped = stamp_message(
            message, ZmailStamp(sender_isp, message_class, token)
        )
        reference = MailMessage(body="hello")
        for name, value in fields:
            reference.headers.add(name, value)
        reference.headers.replace(H_VERSION, "1")
        reference.headers.replace(H_SENDER_ISP, sender_isp)
        reference.headers.replace(H_CLASS, message_class)
        if token is not None:
            reference.headers.replace(H_LIST_TOKEN, token)
        else:
            reference.headers.remove(H_LIST_TOKEN)
        assert stamped.serialize() == reference.serialize()
        assert list(stamped.headers) == list(reference.headers)
        assert message.serialize() == wire  # the original is untouched
