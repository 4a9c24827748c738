#!/usr/bin/env python3
"""Open-loop SMTP load generator for the ``smtp-submit`` workload.

Runs as its own process: one asyncio loop, two connections, on the
core the service is pinned to (see ``smtp_submit.share_one_core``).
Reads a JSON plan on standard input and writes one JSON report on
standard output.

* Every message is rendered to wire bytes before its step's clock
  starts.
* Open loop: message ``j`` of a rung is due at ``start + j / rate`` and
  is sent on connection ``j % 2`` as soon as it is due and that
  connection is free. Latency runs from the due time to the DATA
  ``250``, so a stall is charged to every message queued behind it.
* ``late`` is how far a send started after the later of its due time
  and its connection becoming free: the generator's own tardiness. A
  rung whose late p99 exceeds half its latency p99 measures the
  generator rather than the service and is marked invalid.
* Sessions are recycled after ``session_messages`` messages, well
  inside the server's per-session command budget (each message costs
  three commands), and the new session is opened straight after the
  last reply so the reconnect lands in idle time. Each new session
  moves to the connection's next ISP listener, so all four gateways
  take submissions.
* The ``saturation`` step is closed loop: each connection sends its
  next message as soon as the previous one is answered.
* A run is a long reference segment at a low rate, every ladder rung
  (the same number of samples each, past the knee too, so the message
  count never depends on the service's speed), then the saturation
  step, which also reports the generator's own CPU time per message.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import sys
import time

from harness import percentile

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes
CONNECTIONS = 2


def render(sender: str, recipient: str, index: str) -> tuple[bytes, ...]:
    """One submission as the four client writes of an SMTP transaction."""
    from repro.smtp.message import MailMessage

    body = MailMessage.compose(
        sender=sender,
        recipient=recipient,
        subject=f"benchmark message {index}",
        body=f"Message {index} from {sender} to {recipient}.\n" * 4,
    ).serialize()
    stuffed = "\r\n".join(
        "." + line if line.startswith(".") else line
        for line in body.split("\r\n")
    )
    return (
        f"MAIL FROM:<{sender}>\r\n".encode("ascii"),
        f"RCPT TO:<{recipient}>\r\n".encode("ascii"),
        b"DATA\r\n",
        f"{stuffed}\r\n.\r\n".encode("utf-8"),
    )


def connection_isps(conn: int, n_isps: int) -> list[int]:
    return [isp for isp in range(n_isps) if isp % CONNECTIONS == conn]


def prerender(plan: dict, count: int, conn: int, rng: random.Random, tag: str):
    """``count`` messages for connection ``conn``, senders by session."""
    isps = connection_isps(conn, plan["n_isps"])
    users = plan["users_per_isp"]
    messages = []
    for k in range(count):
        isp = isps[(k // plan["session_messages"]) % len(isps)]
        sender = f"user{rng.randrange(users)}@isp{isp}.example"
        recipient = (
            f"user{rng.randrange(users)}@isp{rng.randrange(plan['n_isps'])}"
            ".example"
        )
        messages.append((isp, render(sender, recipient, f"{tag}-{conn}-{k}")))
    return messages


class _Session:
    def __init__(self, host: str, ports: dict[int, int]) -> None:
        self.host = host
        self.ports = ports
        self.reader = self.writer = None
        self.isp = None
        self.sessions = 0

    async def _expect(self, code: bytes) -> None:
        line = await self.reader.readline()
        if not line.startswith(code):
            raise ConnectionError(f"expected {code!r}, got {line!r}")

    async def open(self, isp: int) -> None:
        await self.close()
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.ports[isp]
        )
        self.isp = isp
        self.sessions += 1
        await self._expect(b"220")
        self.writer.write(b"EHLO loadgen.example\r\n")
        await self._expect(b"250")

    async def close(self) -> None:
        if self.writer is None:
            return
        try:
            self.writer.write(b"QUIT\r\n")
            await self._expect(b"221")
        finally:
            self.writer.close()
            await self.writer.wait_closed()
            self.reader = self.writer = None

    async def submit(self, wire: tuple[bytes, ...]) -> None:
        mail, rcpt, data, body = wire
        write = self.writer.write
        write(mail)
        await self._expect(b"250")
        write(rcpt)
        await self._expect(b"250")
        write(data)
        await self._expect(b"354")
        write(body)
        await self._expect(b"250")


async def _drive(session, messages, dues, plan, samples):
    """Send ``messages`` at ``dues`` (None: closed loop) on one session."""
    per_session = plan["session_messages"]
    free = _clock()
    for k, (isp, wire) in enumerate(messages):
        if session.isp != isp:
            await session.open(isp)
            free = _clock()
        due = dues[k] if dues is not None else free
        delay = due - _clock()
        if delay > 0:
            await asyncio.sleep(delay)
        start = _clock()
        try:
            await session.submit(wire)
            ok = True
        except (ConnectionError, OSError):
            ok = False
        done = _clock()
        samples.append((due, start, done, max(due, free), ok))
        free = done
        if not ok:
            await session.open(isp)
            free = _clock()
        elif (k + 1) % per_session == 0 and k + 1 < len(messages):
            await session.open(messages[k + 1][0])
            free = _clock()


def _evaluate(rate, samples, plan) -> dict:
    """Latency statistics and the pass/fail verdict of one rung."""
    limit_ms = plan["p99_limit_ms"]
    samples.sort(key=lambda s: s[0])
    ok = [s for s in samples if s[4]]
    errors = len(samples) - len(ok)
    latency = [(s[2] - s[0]) * 1000.0 for s in ok] or [float("inf")]
    late = [(s[1] - s[3]) * 1000.0 for s in samples] or [0.0]
    p99 = percentile(latency, 99)
    late_p99 = percentile(late, 99)
    last = max(samples, key=lambda s: s[0])
    backlog_ms = (last[1] - last[0]) * 1000.0
    valid = late_p99 <= p99 / 2
    passed = errors == 0 and p99 <= limit_ms and backlog_ms <= limit_ms
    return {
        "rate": rate,
        "sent": len(samples),
        "errors": errors,
        "p50_ms": percentile(latency, 50),
        "p99_ms": p99,
        "late_p99_ms": late_p99,
        "backlog_ms": backlog_ms,
        "valid": valid,
        "passed": passed,
        "start": min(s[0] for s in samples),
        "end": max(s[2] for s in samples),
    }


async def _rung(sessions, plan, rate, messages):
    start = _clock() + 0.05
    samples: list[tuple] = []
    await asyncio.gather(*(
        _drive(
            session, messages[conn],
            [start + (CONNECTIONS * k + conn) / rate
             for k in range(len(messages[conn]))],
            plan, samples,
        )
        for conn, session in enumerate(sessions)
    ))
    return _evaluate(rate, samples, plan)


async def _saturate(sessions, plan, messages):
    samples: list[tuple] = []
    start, cpu = _clock(), time.process_time()
    await asyncio.gather(*(
        _drive(session, messages[conn], None, plan, samples)
        for conn, session in enumerate(sessions)
    ))
    end = _clock()
    ok = sum(1 for s in samples if s[4])
    return {
        "sent": len(samples),
        "errors": len(samples) - ok,
        "start": start,
        "end": end,
        "msgs_per_s": ok / (end - start),
        "cpu_s_per_msg": (time.process_time() - cpu) / len(samples),
    }


async def _step(sessions, plan, rng, tag, rate, count):
    """One timed step: render its messages, then open sessions and send.

    ``rate`` None is the closed-loop saturation step. Rendering and
    collection happen before the clock starts; the collector stays off
    while the step runs, so the generator's own pauses never land in it.
    """
    messages = [
        prerender(plan, count, conn, rng, f"{tag}-{conn}")
        for conn in range(CONNECTIONS)
    ]
    gc.collect()
    for conn, session in enumerate(sessions):
        await session.open(messages[conn][0][0])
    gc.disable()
    try:
        if rate is None:
            return await _saturate(sessions, plan, messages)
        return await _rung(sessions, plan, rate, messages)
    finally:
        gc.enable()


async def run(plan: dict) -> dict:
    """The reference segment, every ladder rung, then saturation.

    Every rung runs even past the knee, so each run sends the same
    number of messages whatever the service's speed.
    """
    rng = random.Random(plan["seed"])
    ports = {int(isp): port for isp, port in plan["ports"].items()}
    sessions = [_Session(plan["host"], ports) for _ in range(CONNECTIONS)]
    reference = plan["reference"]
    report = {}
    try:
        report["reference"] = await _step(
            sessions, plan, rng, "ref", reference["rate"],
            max(1, round(reference["rate"] * reference["seconds"] / CONNECTIONS)),
        )
        report["rungs"] = []
        for rate in plan["ladder"]:
            await asyncio.sleep(plan["pause_s"])
            report["rungs"].append(await _step(
                sessions, plan, rng, f"r{rate:g}", rate,
                plan["rung_samples"] // CONNECTIONS,
            ))
        await asyncio.sleep(plan["pause_s"])
        report["saturation"] = await _step(
            sessions, plan, rng, "sat", None, plan["saturation_messages"]
        )
    finally:
        for session in sessions:
            await session.close()
    report["sessions"] = sum(session.sessions for session in sessions)
    return report


def main() -> int:
    plan = json.loads(sys.stdin.read())
    report = asyncio.run(run(plan))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
