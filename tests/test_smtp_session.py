"""The SMTP protocol session: chunk-split invariance, the line bound,
async handlers and write backpressure.

Most cases drive ``_Session`` directly through an in-memory transport,
so a byte stream can be cut anywhere; the line bound and backpressure
cases also run over localhost TCP.
"""

import asyncio
import logging
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace import ListSink, TraceRecorder
from repro.smtp.server import _MAX_LINE, _READ_SIZE, SMTPServer, _Session


class MemoryTransport:
    """The slice of ``asyncio.Transport`` a session uses, in memory."""

    def __init__(self):
        self.out = bytearray()
        self.reading = True
        self.closed = False

    def write(self, data):
        self.out += data

    def close(self):
        self.closed = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def codes(self):
        return [int(line[:3]) for line in bytes(self.out).split(b"\r\n") if line]


def _transaction(sender, recipients, body):
    return b"".join([
        b"MAIL FROM:<%s>\r\n" % sender,
        *(b"RCPT TO:<%s>\r\n" % rcpt for rcpt in recipients),
        b"DATA\r\n",
        body,
        b".\r\n",
    ])


HEAD = b"".join([
    b"EHLO client.example\r\n",
    # Two recipients and dot-stuffed lines.
    _transaction(
        b"a@x.example", [b"b@y.example", b"c@y.example"],
        b"Subject: first\r\n\r\n..leading dot\r\nplain\r\n...\r\n",
    ),
    # Bad verbs, one not even ASCII, and out-of-order commands.
    b"FROBNICATE now\r\n",
    b"\xff\xfe\r\n",
    b"RCPT TO:<b@y.example>\r\n",
    b"MAIL FROM:<not-an-address>\r\n",
    b"NOOP\r\n",
    b"VRFY someone\r\n",
    # A transaction with bad arguments, abandoned by RSET.
    b"MAIL FROM:<a@x.example>\r\n",
    b"MAIL FROM:<a@x.example>\r\n",
    b"RCPT NOPE\r\n",
    b"RCPT TO:<not-an-address>\r\n",
    b"RSET\r\n",
    b"MAIL NOPE\r\n",
    # A message that does not parse.
    _transaction(b"a@x.example", [b"b@y.example"], b"no colon\r\n\r\nbody\r\n"),
])
#: Over 1 MiB of body: consumed to its end marker, then refused.
OVERSIZE = _transaction(
    b"a@x.example", [b"b@y.example"], (b"x" * 1000 + b"\r\n") * 1100
)
TAIL = b"".join([
    _transaction(b"d@x.example", [b"e@y.example"], b"Subject: last\r\n\r\nbye\r\n"),
    b"QUIT\r\n",
])
SCRIPT = HEAD + OVERSIZE + TAIL
ONE_MESSAGE = _transaction(
    b"a@x.example", [b"b@y.example"], b"Subject: s\r\n\r\nx\r\n"
)

HEAD_CODES = [220, 250, 250, 250, 250, 354, 250, 500, 500, 503, 553, 250, 252,
              250, 503, 501, 553, 250, 501, 250, 250, 354, 554]
OVERSIZE_CODES = [250, 250, 354, 552]
TAIL_CODES = [250, 250, 354, 250, 221]
ENVELOPES = [
    ("a@x.example", "b@y.example", "first", ".leading dot\nplain\n.."),
    ("a@x.example", "c@y.example", "first", ".leading dot\nplain\n.."),
    ("d@x.example", "e@y.example", "last", "bye"),
]


async def _readable(transport):
    """Wait until the session reads again: a paused transport delivers
    nothing until the session resumes it."""
    for _ in range(100):
        if transport.reading or transport.closed:
            return
        await asyncio.sleep(0)
    raise AssertionError("the session never resumed reading")


def feed(session, data):
    """Deliver ``data`` as a transport does, through ``get_buffer``."""
    buffer = session.get_buffer(-1)
    assert len(data) <= len(buffer)
    buffer[:len(data)] = data
    session.buffer_updated(len(data))


def reads(chunks, size):
    """``chunks`` cut to reads of at most ``size`` bytes."""
    for chunk in chunks:
        for i in range(0, len(chunk), size):
            yield chunk[i:i + size]


def converse(chunks, *, asynchronous=False):
    """Feed ``chunks`` to one session; returns (reply codes, envelopes,
    server)."""
    received = []
    if asynchronous:
        async def handler(envelope):
            await asyncio.sleep(0)
            received.append(envelope)
    else:
        handler = received.append
    server = SMTPServer(handler, hostname="mx.example")

    async def run():
        session = _Session(server)
        transport = MemoryTransport()
        session.connection_made(transport)
        for chunk in reads(chunks, len(session.get_buffer(-1))):
            await _readable(transport)
            if transport.closed:
                break
            feed(session, chunk)
        await _readable(transport)
        return transport

    transport = asyncio.run(run())
    envelopes = [
        (e.mail_from, e.rcpt_to, e.message.subject,
         e.message.body.replace("\r\n", "\n"))
        for e in received
    ]
    return transport.codes(), envelopes, server


def _split(stream, cuts):
    points = sorted({0, len(stream), *cuts})
    return [stream[a:b] for a, b in zip(points, points[1:])]


# Cut points: anywhere, or inside the short command parts, where a
# uniform draw over the megabyte of oversize body would rarely land.
_SHORT = [*range(len(HEAD) + 80), *range(len(HEAD + OVERSIZE) - 80, len(SCRIPT) + 1)]
_CUT = st.one_of(st.integers(0, len(SCRIPT)), st.sampled_from(_SHORT))


class TestChunkSplits:
    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_whole_stream(self, asynchronous):
        codes, envelopes, server = converse([SCRIPT], asynchronous=asynchronous)
        assert codes == HEAD_CODES + OVERSIZE_CODES + TAIL_CODES
        assert envelopes == ENVELOPES
        assert server.messages_accepted == 3
        assert server.sessions_served == 1

    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_one_byte_at_a_time(self, asynchronous):
        stream = HEAD + TAIL
        codes, envelopes, _ = converse(
            [stream[i:i + 1] for i in range(len(stream))],
            asynchronous=asynchronous,
        )
        assert codes == HEAD_CODES + TAIL_CODES
        assert envelopes == ENVELOPES

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        cuts=st.lists(_CUT, max_size=40),
        fine=st.tuples(st.sampled_from(_SHORT), st.integers(0, 48)),
        asynchronous=st.booleans(),
    )
    def test_any_split_matches_the_whole_stream(self, cuts, fine, asynchronous):
        start, length = fine
        chunks = _split(SCRIPT, [*cuts, *range(start, start + length)])
        codes, envelopes, _ = converse(chunks, asynchronous=asynchronous)
        assert codes == HEAD_CODES + OVERSIZE_CODES + TAIL_CODES
        assert envelopes == ENVELOPES


class TestHeldSession:
    def test_async_handler_holds_pipelined_commands(self):
        order = []

        async def run():
            gate = asyncio.Event()

            async def handler(envelope):
                order.append("handler")
                await gate.wait()
                order.append("handled")

            server = SMTPServer(handler)
            session = _Session(server)
            transport = MemoryTransport()
            session.connection_made(transport)
            feed(session, b"EHLO me\r\n" + ONE_MESSAGE + b"NOOP\r\n")
            await asyncio.sleep(0)
            held = (transport.codes(), transport.reading)
            gate.set()
            await _readable(transport)
            return held, transport.codes()

        held, done = asyncio.run(run())
        # The NOOP waits behind the handler; reading is paused meanwhile.
        assert held == ([220, 250, 250, 250, 354], False)
        assert done == [220, 250, 250, 250, 354, 250, 250]
        assert order == ["handler", "handled"]

    def test_write_backpressure_pauses_consumption(self):
        server = SMTPServer(lambda e: None)
        session = _Session(server)
        transport = MemoryTransport()
        session.connection_made(transport)
        session.pause_writing()
        feed(session, b"NOOP\r\nNOOP\r\n")
        assert transport.codes() == [220]
        assert not transport.reading
        session.resume_writing()
        assert transport.codes() == [220, 250, 250]
        assert transport.reading

    def test_failing_async_handler_aborts_the_session(self, caplog):
        sink = ListSink()

        async def handler(envelope):
            raise RuntimeError("handler down")

        server = SMTPServer(handler, tracer=TraceRecorder(sink=sink))

        async def run():
            session = _Session(server)
            transport = MemoryTransport()
            session.connection_made(transport)
            feed(session, b"EHLO me\r\n" + ONE_MESSAGE + b"NOOP\r\n")
            for _ in range(10):
                await asyncio.sleep(0)
            return transport

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            transport = asyncio.run(run())
        assert transport.closed
        assert transport.codes() == [220, 250, 250, 250, 354]
        assert [e["outcome"] for e in sink.events()] == ["aborted"]
        assert "SMTP delivery handler failed" in caplog.text
        assert server.messages_accepted == 0


class TestSessionEnds:
    def test_unterminated_last_line_still_runs_at_eof(self):
        sink = ListSink()
        server = SMTPServer(lambda e: None, tracer=TraceRecorder(sink=sink))
        session = _Session(server)
        transport = MemoryTransport()
        session.connection_made(transport)
        feed(session, b"EHLO me\r\nQUIT")
        assert transport.codes() == [220, 250]
        assert session.eof_received()  # the session closes, not the transport
        assert transport.codes() == [220, 250, 221]
        assert transport.closed
        assert [e["outcome"] for e in sink.events()] == ["served"]

    def test_eof_mid_session_aborts(self):
        sink = ListSink()
        server = SMTPServer(lambda e: None, tracer=TraceRecorder(sink=sink))
        session = _Session(server)
        transport = MemoryTransport()
        session.connection_made(transport)
        feed(session, b"EHLO me\r\n")
        session.eof_received()
        session.connection_lost(None)
        assert transport.closed
        assert [e["outcome"] for e in sink.events()] == ["aborted"]
        assert not server._sessions

    def test_connection_over_the_cap_is_rejected_and_traced(self):
        sink = ListSink()
        server = SMTPServer(
            lambda e: None, max_connections=1, tracer=TraceRecorder(sink=sink)
        )
        first, second = MemoryTransport(), MemoryTransport()
        _Session(server).connection_made(first)
        _Session(server).connection_made(second)
        assert first.codes() == [220] and not first.closed
        assert second.codes() == [421] and second.closed
        assert server.connections_rejected == 1
        assert [e["outcome"] for e in sink.events()] == ["rejected"]


class TestLineBound:
    def test_longest_allowed_line_is_served(self):
        line = b"NOOP " + b"x" * (_MAX_LINE - 7) + b"\r\n"
        assert len(line) == _MAX_LINE
        assert converse([b"EHLO me\r\n", line])[0] == [220, 250, 250]

    def test_partial_line_is_bounded(self):
        codes, _, server = converse([b"EHLO me\r\n", b"x" * (_MAX_LINE - 1)])
        assert codes == [220, 250]
        codes, _, server = converse([b"EHLO me\r\n", b"x" * _MAX_LINE])
        assert codes == [220, 250, 500]
        assert not server._sessions

    @pytest.mark.parametrize("mode", ["command", "data"])
    def test_line_too_long_replies_500_and_aborts(self, mode, caplog):
        sink = ListSink()
        received = []
        server = SMTPServer(received.append, tracer=TraceRecorder(sink=sink))
        opening = ["EHLO me"]
        if mode == "data":
            opening += ["MAIL FROM:<a@x.example>", "RCPT TO:<b@y.example>", "DATA"]

        async def scenario():
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()
            for line in opening:
                writer.write(line.encode() + b"\r\n")
                await writer.drain()
                await reader.readline()
            writer.write(b"x" * _MAX_LINE + b"\r\n")
            await writer.drain()
            reply = await reader.readline()
            eof = await reader.read()
            writer.close()
            await server.stop()
            return reply, eof

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            reply, eof = asyncio.run(scenario())
        assert reply == b"500 line too long\r\n"
        assert eof == b""  # the server closed the connection
        assert [e["outcome"] for e in sink.events()] == ["aborted"]
        assert not caplog.records
        assert received == []
        assert not server._sessions


class TestBackpressure:
    def test_client_that_never_reads_stops_the_server_reading(self):
        """Pipelined NOOPs from a client that reads no reply: the server's
        write buffer fills, it stops reading, and the client's writes
        stall, with the server holding at most one read of input."""
        server = SMTPServer(lambda e: None, max_session_commands=10**9)
        chunk = b"NOOP\r\n" * 10_000
        limit = 64 * 1024 * 1024  # far past every socket buffer

        async def scenario():
            host, port = await server.start()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((host, port))
            sock.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=sock)
            sent = 0
            try:
                while sent < limit:
                    writer.write(chunk)
                    try:
                        await asyncio.wait_for(writer.drain(), 0.5)
                    except asyncio.TimeoutError:
                        break
                    sent += len(chunk)
                (session,) = server._sessions
                state = (
                    sent,
                    session._write_paused,
                    len(session._buffer),
                    session.transport.get_write_buffer_size(),
                )
            finally:
                writer.transport.abort()
                await server.stop()
            return state

        sent, paused, buffered, unsent = asyncio.run(scenario())
        assert sent < limit
        assert paused
        assert buffered <= _READ_SIZE + _MAX_LINE  # one read and a partial line
        # The default high-water mark plus the reply that crossed it.
        assert unsent <= 2 * 64 * 1024
