"""An asyncio SMTP server implementing the RFC 821 subset Zmail needs.

Supported verbs: HELO, EHLO, MAIL FROM, RCPT TO, DATA, RSET, NOOP, VRFY,
QUIT. The server performs dot-unstuffing on DATA and hands each completed
:class:`~repro.smtp.transport.Envelope` to a delivery handler. It exists
to demonstrate the paper's claim that Zmail "requires no change to SMTP":
the Zmail binding lives entirely in message headers and in the handler
behind the server.

Overload hardening: a concurrent-connection cap and per-session command
and error budgets (all answered with ``421``, the RFC 821 "service not
available, closing transmission channel" reply), plus an optional
admission gate consulted at MAIL time that temp-fails with ``451`` when
the system is saturated — backpressure instead of unbounded buffering.

Each connection is one :class:`asyncio.BufferedProtocol` (``_Session``):
the transport reads into the server's receive buffer, the session appends
what arrived to its line buffer, every complete line runs through the
command/DATA state machine in place, and replies go straight to the
transport, with no coroutine per line. A session stops consuming lines,
and pauses reading, while an async delivery handler runs (so pipelined
commands keep their order) and while its transport's write buffer is over
the high-water mark (so a client that never reads its replies stops the
server reading instead of growing its buffers).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from ..errors import SMTPProtocolError
from ..obs.trace import NULL_TRACER, TraceRecorder
from .address import parse_address
from .message import MailMessage
from .transport import Envelope

__all__ = ["SMTPServer"]

_MAX_LINE = 4096
_MAX_MESSAGE = 1 << 20  # 1 MiB is plenty for simulation traffic
_READ_SIZE = 1 << 16  # bytes one socket read may deliver

HandlerFn = Callable[[Envelope], None] | Callable[[Envelope], Awaitable[None]]


class SMTPServer:
    """A minimal but correct SMTP listener.

    Args:
        handler: Called (sync or async) once per accepted message, with one
            envelope per RCPT recipient.
        hostname: Name announced in the greeting banner.
        rcpt_checker: Optional predicate; returning ``False`` rejects the
            recipient with 550 (used to model non-compliant-mail policies).
        max_connections: Concurrent-session cap; connection attempts
            beyond it are greeted with ``421`` and closed immediately
            (counted in :attr:`connections_rejected`).
        max_session_commands: Commands one session may issue before the
            server closes it with ``421`` (anti-hogging budget).
        max_session_errors: Errored commands (4xx/5xx replies) one
            session may accumulate before a ``421`` close — a client
            spewing garbage loses its slot instead of burning cycles.
        admission: Optional gate consulted at MAIL time; returning
            ``False`` temp-fails the transaction with ``451`` (counted in
            :attr:`mail_tempfailed`), the SMTP face of admission control.
        tracer: Structured trace recorder; sessions emit
            ``smtp.session`` events. The server has no virtual clock, so
            events carry whatever clock the recorder was given (``t=0``
            for a bare recorder).

    Example (see ``examples/smtp_demo.py`` for a full round-trip)::

        server = SMTPServer(handler, hostname="isp0.example")
        host, port = await server.start()
        ...
        await server.stop()
    """

    def __init__(
        self,
        handler: HandlerFn,
        *,
        hostname: str = "zmail.example",
        rcpt_checker: Callable[[str], bool] | None = None,
        max_connections: int = 64,
        max_session_commands: int = 1000,
        max_session_errors: int = 20,
        admission: Callable[[], bool] | None = None,
        tracer: TraceRecorder | None = None,
    ) -> None:
        if max_connections < 1 or max_session_commands < 1 or max_session_errors < 1:
            raise ValueError("SMTP server budgets must be at least 1")
        self._handler = handler
        self.hostname = hostname
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rcpt_checker = rcpt_checker
        self._server: asyncio.AbstractServer | None = None
        self.max_connections = max_connections
        self.max_session_commands = max_session_commands
        self.max_session_errors = max_session_errors
        self._admission = admission
        self._sessions: set[_Session] = set()  # open, each holding a slot
        # Every session's transport reads into this one buffer, which the
        # session copies from at once (``get_buffer``/``buffer_updated``
        # run back to back on the loop). A plain ``Protocol`` would have
        # the transport allocate a 256 KiB ``recv`` result per read.
        self._read_buffer = memoryview(bytearray(_READ_SIZE))
        self.messages_accepted = 0
        self.sessions_served = 0
        self.connections_rejected = 0
        self.sessions_capped = 0
        self.mail_tempfailed = 0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Session(self), host, port)
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        return bound_host, bound_port

    async def stop(self) -> None:
        """Stop listening, close every open session (traced ``aborted``)
        and wait for the listener to close."""
        if self._server is not None:
            self._server.close()
            for session in list(self._sessions):
                session.close("aborted")
            await self._server.wait_closed()
            self._server = None


class _Session(asyncio.BufferedProtocol):
    """State machine for one SMTP connection, driven by its transport.

    ``buffer_updated`` appends what the transport read into the server's
    receive buffer to this session's line buffer and runs every complete
    line through the command or DATA state; replies go straight to
    ``transport.write``. Lines are consumed only while neither an async
    handler (``_waiting``) nor a full write buffer (``_write_paused``)
    holds the session, and reading pauses with it, so the unconsumed
    input is at most one read plus a partial line of under ``_MAX_LINE``
    bytes.
    """

    def __init__(self, server: SMTPServer) -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        self._live = False  # in ``server._sessions``
        self._waiting = False
        self._write_paused = False
        self._eof = False
        self._task: asyncio.Task | None = None  # the loop holds tasks weakly
        self.greeted = False
        self.mail_from: str | None = None
        self.rcpt_to: list[str] = []
        self.commands = 0
        self.errors = 0
        # Message lines while in DATA mode, ``None`` in command mode.
        self._data: list[str] | None = None
        self._size = 0
        self._oversize = False

    # -- transport callbacks -----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        server = self.server
        if len(server._sessions) >= server.max_connections:
            server.connections_rejected += 1
            if server.tracer.enabled:
                server.tracer.emit("smtp.session", outcome="rejected")
            transport.write(
                f"421 {server.hostname} too many connections, "
                f"try again later\r\n".encode("ascii")
            )
            transport.close()
            return
        server.sessions_served += 1
        server._sessions.add(self)
        self._live = True
        self._reply(220, f"{server.hostname} Zmail-repro SMTP ready")

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self._buffer += self.server._read_buffer[:nbytes]
        self._run()

    def eof_received(self) -> bool:
        # An unterminated last line still counts as a line, as it did
        # for a stream ``readline``; the session then ends ``aborted``.
        self._eof = True
        if self._buffer and not self._buffer.endswith(b"\n"):
            self._buffer += b"\n"
        self._run()
        return True  # the session closes the transport itself

    def connection_lost(self, exc: Exception | None) -> None:
        self.close("aborted")

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._resume()

    # -- session plumbing --------------------------------------------------------

    def close(self, outcome: str) -> None:
        """End the session once: trace ``outcome``, free its slot, close."""
        if not self._live:
            return
        self._live = False
        server = self.server
        server._sessions.discard(self)
        if server.tracer.enabled:
            server.tracer.emit("smtp.session", outcome=outcome)
        self.transport.close()

    def _held(self) -> bool:
        return not self._live or self._waiting or self._write_paused

    def _run(self) -> None:
        """Consume every complete buffered line while the session runs."""
        buffer = self._buffer
        start = 0
        while not self._held():
            end = buffer.find(b"\n", start) + 1
            if not end:
                break
            if end - start > _MAX_LINE:
                self._line_too_long()
                return
            line = buffer[start:end].decode("ascii", errors="replace")
            start = end
            if self._data is None:
                self._command(line.rstrip("\r\n"))
            else:
                self._data_line(line.rstrip("\r\n"))
        del buffer[:start]
        if self._held():
            return
        # Only a partial line is left: bound it, or end at EOF.
        if len(buffer) >= _MAX_LINE:
            self._line_too_long()
        elif self._eof:
            self.close("aborted")

    def _resume(self) -> None:
        if self._held():
            return
        if not self._eof:
            self.transport.resume_reading()
        self._run()

    def _line_too_long(self) -> None:
        self._reply(500, "line too long")
        self.close("aborted")

    def _reply(self, code: int, text: str) -> None:
        if code >= 400:
            self.errors += 1
        self.transport.write(f"{code} {text}\r\n".encode("ascii", errors="replace"))

    def _reset(self) -> None:
        self.mail_from = None
        self.rcpt_to = []

    def _over_budget(self) -> bool:
        """Check the per-session command and error budgets.

        Returns True (after sending the 421 goodbye and closing) when
        either budget is exhausted: a single client must not be able to
        hog the listener with an endless command stream or a torrent of
        garbage.
        """
        if self.commands > self.server.max_session_commands:
            text = "too many commands, closing channel"
        elif self.errors >= self.server.max_session_errors:
            text = "too many errors, closing channel"
        else:
            return False
        self.server.sessions_capped += 1
        self._reply(421, text)
        self.close("served")
        return True

    # -- command state -----------------------------------------------------------

    def _command(self, line: str) -> None:
        self.commands += 1
        if self._over_budget():
            return
        verb, _, argument = line.partition(" ")
        verb = verb.upper()
        if verb in ("HELO", "EHLO"):
            self.greeted = True
            self._reset()
            self._reply(250, f"{self.server.hostname} greets you")
        elif verb == "MAIL":
            self._do_mail(argument)
        elif verb == "RCPT":
            self._do_rcpt(argument)
        elif verb == "DATA":
            self._do_data()
        elif verb == "RSET":
            self._reset()
            self._reply(250, "OK")
        elif verb == "NOOP":
            self._reply(250, "OK")
        elif verb == "VRFY":
            self._reply(252, "cannot VRFY user, will attempt delivery")
        elif verb == "QUIT":
            self._reply(221, f"{self.server.hostname} closing channel")
            self.close("served")
        else:
            self._reply(500, f"unrecognized command {verb!r}")

    def _do_mail(self, argument: str) -> None:
        if not self.greeted:
            self._reply(503, "send HELO/EHLO first")
            return
        if self.mail_from is not None:
            self._reply(503, "nested MAIL command")
            return
        gate = self.server._admission
        if gate is not None and not gate():
            self.server.mail_tempfailed += 1
            self._reply(451, "server overloaded, try again later")
            return
        upper = argument.upper()
        if not upper.startswith("FROM:"):
            self._reply(501, "syntax: MAIL FROM:<address>")
            return
        raw = argument[5:].strip()
        try:
            address = parse_address(raw)
        except SMTPProtocolError:
            self._reply(553, f"malformed reverse-path {raw!r}")
            return
        self.mail_from = str(address)
        self._reply(250, "OK")

    def _do_rcpt(self, argument: str) -> None:
        if self.mail_from is None:
            self._reply(503, "need MAIL before RCPT")
            return
        upper = argument.upper()
        if not upper.startswith("TO:"):
            self._reply(501, "syntax: RCPT TO:<address>")
            return
        raw = argument[3:].strip()
        try:
            address = parse_address(raw)
        except SMTPProtocolError:
            self._reply(553, f"malformed forward-path {raw!r}")
            return
        checker = self.server._rcpt_checker
        if checker is not None and not checker(str(address)):
            self._reply(550, f"recipient {address} rejected")
            return
        self.rcpt_to.append(str(address))
        self._reply(250, "OK")

    def _do_data(self) -> None:
        if not self.rcpt_to:
            self._reply(503, "need RCPT before DATA")
            return
        self._reply(354, "start mail input; end with <CRLF>.<CRLF>")
        self._data = []
        self._size = 0
        self._oversize = False

    # -- DATA state --------------------------------------------------------------

    def _data_line(self, line: str) -> None:
        if line == ".":
            self._end_data()
            return
        if line.startswith("."):
            line = line[1:]  # dot-unstuffing (RFC 821 §4.5.2)
        self._size += len(line) + 2
        if self._size > _MAX_MESSAGE:
            # Keep consuming to the end-of-data marker so the rest of
            # the stream is not misread as commands; reject after.
            self._oversize = True
            self._data.clear()
        elif not self._oversize:
            self._data.append(line)

    def _end_data(self) -> None:
        lines, self._data = self._data, None
        if self._oversize:
            self._reply(552, "message exceeds maximum size")
            self._reset()
            return
        try:
            message = MailMessage.parse("\r\n".join(lines))
        except SMTPProtocolError as exc:
            self._reply(554, f"unparseable message: {exc}")
            self._reset()
            return
        envelopes = [
            Envelope(self.mail_from, recipient, message) for recipient in self.rcpt_to
        ]
        self._reset()
        server = self.server
        for k, envelope in enumerate(envelopes):
            result = server._handler(envelope)
            if asyncio.iscoroutine(result):
                # Hold the session (and its reading) until the handler
                # and the rest of the recipients are done.
                self._waiting = True
                self.transport.pause_reading()
                self._task = asyncio.get_running_loop().create_task(
                    self._deliver_async(result, envelopes[k + 1:])
                )
                return
            server.messages_accepted += 1
        self._reply(250, "OK message accepted for delivery")

    async def _deliver_async(
        self, pending: Awaitable[None], envelopes: list[Envelope]
    ) -> None:
        server = self.server
        try:
            await pending
            server.messages_accepted += 1
            for envelope in envelopes:
                result = server._handler(envelope)
                if asyncio.iscoroutine(result):
                    await result
                server.messages_accepted += 1
        except Exception as exc:
            asyncio.get_running_loop().call_exception_handler({
                "message": "SMTP delivery handler failed",
                "exception": exc,
                "protocol": self,
            })
            self.close("aborted")
            return
        finally:
            self._task = None
        if self._live:
            self._reply(250, "OK message accepted for delivery")
            self._waiting = False
            self._resume()
