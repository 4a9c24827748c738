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
        self._active_sessions = 0
        self.messages_accepted = 0
        self.sessions_served = 0
        self.connections_rejected = 0
        self.sessions_capped = 0
        self.mail_tempfailed = 0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(self._serve_session, host, port)
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        return bound_host, bound_port

    async def stop(self) -> None:
        """Stop listening and wait for the listener to close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- session handling ------------------------------------------------------

    async def _serve_session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._active_sessions >= self.max_connections:
            self.connections_rejected += 1
            if self.tracer.enabled:
                self.tracer.emit("smtp.session", outcome="rejected")
            try:
                writer.write(
                    f"421 {self.hostname} too many connections, "
                    f"try again later\r\n".encode("ascii")
                )
                await writer.drain()
            except ConnectionError:  # pragma: no cover - client raced away
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:  # pragma: no cover
                    pass
            return
        self._active_sessions += 1
        self.sessions_served += 1
        session = _Session(self, reader, writer)
        outcome = "served"
        try:
            await session.run()
        except (ConnectionError, asyncio.IncompleteReadError):
            outcome = "aborted"
        finally:
            if self.tracer.enabled:
                self.tracer.emit("smtp.session", outcome=outcome)
            self._active_sessions -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    async def _dispatch(self, envelope: Envelope) -> None:
        result = self._handler(envelope)
        if asyncio.iscoroutine(result):
            await result
        self.messages_accepted += 1


class _Session:
    """State machine for one SMTP connection."""

    def __init__(
        self,
        server: SMTPServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.greeted = False
        self.mail_from: str | None = None
        self.rcpt_to: list[str] = []
        self.commands = 0
        self.errors = 0

    async def _reply(self, code: int, text: str) -> None:
        if code >= 400:
            self.errors += 1
        self.writer.write(f"{code} {text}\r\n".encode("ascii"))
        await self.writer.drain()

    async def _read_line(self) -> str:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("client closed connection")
        if len(line) > _MAX_LINE:
            raise SMTPProtocolError("line too long")
        return line.decode("ascii", errors="replace").rstrip("\r\n")

    def _reset(self) -> None:
        self.mail_from = None
        self.rcpt_to = []

    async def _over_budget(self) -> bool:
        """Check the per-session command and error budgets.

        Returns True (after sending the 421 goodbye) when either budget
        is exhausted, which terminates the session: a single client must
        not be able to hog the listener with an endless command stream
        or a torrent of garbage.
        """
        if self.commands > self.server.max_session_commands:
            self.server.sessions_capped += 1
            await self._reply(421, "too many commands, closing channel")
            return True
        if self.errors >= self.server.max_session_errors:
            self.server.sessions_capped += 1
            await self._reply(421, "too many errors, closing channel")
            return True
        return False

    async def run(self) -> None:
        await self._reply(220, f"{self.server.hostname} Zmail-repro SMTP ready")
        while True:
            line = await self._read_line()
            self.commands += 1
            if await self._over_budget():
                return
            verb, _, argument = line.partition(" ")
            verb = verb.upper()
            if verb in ("HELO", "EHLO"):
                self.greeted = True
                self._reset()
                await self._reply(250, f"{self.server.hostname} greets you")
            elif verb == "MAIL":
                await self._do_mail(argument)
            elif verb == "RCPT":
                await self._do_rcpt(argument)
            elif verb == "DATA":
                await self._do_data()
            elif verb == "RSET":
                self._reset()
                await self._reply(250, "OK")
            elif verb == "NOOP":
                await self._reply(250, "OK")
            elif verb == "VRFY":
                await self._reply(252, "cannot VRFY user, will attempt delivery")
            elif verb == "QUIT":
                await self._reply(221, f"{self.server.hostname} closing channel")
                return
            else:
                await self._reply(500, f"unrecognized command {verb!r}")

    async def _do_mail(self, argument: str) -> None:
        if not self.greeted:
            await self._reply(503, "send HELO/EHLO first")
            return
        if self.mail_from is not None:
            await self._reply(503, "nested MAIL command")
            return
        gate = self.server._admission
        if gate is not None and not gate():
            self.server.mail_tempfailed += 1
            await self._reply(451, "server overloaded, try again later")
            return
        upper = argument.upper()
        if not upper.startswith("FROM:"):
            await self._reply(501, "syntax: MAIL FROM:<address>")
            return
        raw = argument[5:].strip()
        try:
            address = parse_address(raw)
        except SMTPProtocolError:
            await self._reply(553, f"malformed reverse-path {raw!r}")
            return
        self.mail_from = str(address)
        await self._reply(250, "OK")

    async def _do_rcpt(self, argument: str) -> None:
        if self.mail_from is None:
            await self._reply(503, "need MAIL before RCPT")
            return
        upper = argument.upper()
        if not upper.startswith("TO:"):
            await self._reply(501, "syntax: RCPT TO:<address>")
            return
        raw = argument[3:].strip()
        try:
            address = parse_address(raw)
        except SMTPProtocolError:
            await self._reply(553, f"malformed forward-path {raw!r}")
            return
        checker = self.server._rcpt_checker
        if checker is not None and not checker(str(address)):
            await self._reply(550, f"recipient {address} rejected")
            return
        self.rcpt_to.append(str(address))
        await self._reply(250, "OK")

    async def _do_data(self) -> None:
        if not self.rcpt_to:
            await self._reply(503, "need RCPT before DATA")
            return
        await self._reply(354, "start mail input; end with <CRLF>.<CRLF>")
        lines: list[str] = []
        size = 0
        oversize = False
        while True:
            line = await self._read_line()
            if line == ".":
                break
            if line.startswith("."):
                line = line[1:]  # dot-unstuffing (RFC 821 §4.5.2)
            size += len(line) + 2
            if size > _MAX_MESSAGE:
                # Keep consuming to the end-of-data marker so the rest of
                # the stream is not misread as commands; reject after.
                oversize = True
                lines.clear()
                continue
            if not oversize:
                lines.append(line)
        if oversize:
            await self._reply(552, "message exceeds maximum size")
            self._reset()
            return
        raw = "\r\n".join(lines)
        try:
            message = MailMessage.parse(raw)
        except SMTPProtocolError as exc:
            await self._reply(554, f"unparseable message: {exc}")
            self._reset()
            return
        assert self.mail_from is not None
        for recipient in self.rcpt_to:
            await self.server._dispatch(
                Envelope(self.mail_from, recipient, message)
            )
        self._reset()
        await self._reply(250, "OK message accepted for delivery")
