"""Reliable, ordered delivery over the lossy network model.

The Zmail paper's channel model (§3) assumes every sent message is
eventually received — credit anti-symmetry (§4.4) is simply false if a
paid email can vanish in transit (the sender counted +1, the receiver
never counted −1, and an honest pair looks like a cheater). Real SMTP
gets this from TCP plus retry queues. This module provides the
equivalent for the simulated network: per-link sequence numbers,
cumulative acknowledgments, and timer-driven retransmission, giving
exactly-once in-order delivery over a :class:`~repro.sim.network.Network`
with arbitrary loss (< 1.0).

Failure-injection tests use it both ways: demonstrating that loss breaks
reconciliation on raw links, and that :class:`ReliableEndpoint` restores
the paper's assumption. The chaos harness (:mod:`repro.chaos`)
additionally crashes endpoints mid-run: :meth:`ReliableEndpoint.close` cancels the
outstanding retransmission timers (so none fires into a dead endpoint)
and :meth:`ReliableEndpoint.reopen` re-arms them from the durable
sequence state, modelling a mail queue that survives a restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .. import records
from ..errors import SimulationError
from ..records import PAYLOAD, Field, Map, Record
from .engine import Engine
from .events import EventHandle
from .network import Network

__all__ = ["ReliablePayload", "ReliableAck", "ReliableEndpoint"]


@dataclass(frozen=True)
class ReliablePayload:
    """A data frame: link-scoped sequence number plus the user payload."""

    seq: int
    payload: Any


@dataclass(frozen=True)
class ReliableAck:
    """Cumulative acknowledgment: every frame below ``next_expected`` arrived."""

    next_expected: int


@dataclass
class _OutboundState:
    """Sender-side per-destination state.

    ``timer`` holds the outstanding retransmission timer's handle so a
    teardown (:meth:`ReliableEndpoint.close`) can cancel it; ``retries``
    counts consecutive retransmission rounds without ack progress, which
    also drives the exponential backoff schedule.
    """

    next_seq: int = 0
    unacked: dict[int, Any] = field(default_factory=dict)
    retries: int = 0
    timer: EventHandle | None = None


@dataclass
class _InboundState:
    """Receiver-side per-source state."""

    next_expected: int = 0
    buffer: dict[int, Any] = field(default_factory=dict)


#: A reliable endpoint's journal (its mail queue), per peer node name:
#: send sequence numbers and unacked frames, receive cursors and reorder
#: buffers. Timers, retry counters and wire statistics are volatile.
ENDPOINT = Record(
    Field("outbound", Map(Record(
        Field("next_seq", int, 0), Field("unacked", Map(PAYLOAD)),
        cls=_OutboundState,
    ), keys=str), attr="_outbound"),
    Field("inbound", Map(Record(
        Field("next_expected", int, 0), Field("buffer", Map(PAYLOAD)),
        cls=_InboundState,
    ), keys=str), attr="_inbound"),
)


class ReliableEndpoint:
    """Network endpoint adapter adding reliability to an inner handler.

    Wire one of these per node; it registers itself with the network under
    ``name`` and delivers application payloads to ``on_payload(src, data)``
    exactly once, in per-link order, despite loss and duplication below.

    Args:
        retransmit_interval: Base retransmission timeout in seconds.
        max_retries: Consecutive no-progress retransmission rounds before
            the endpoint gives up with :class:`SimulationError`; ``None``
            retries forever (chaos campaigns, where the peer *will* come
            back and convergence is the property under test).
        backoff: Multiplier applied to the interval per consecutive
            no-progress round (1.0 = fixed interval, the historic default).
        max_interval: Cap on the backed-off interval, if any.

    Example:
        >>> from repro.sim import Engine, Network, SeededStreams, LinkSpec
        >>> engine = Engine()
        >>> net = Network(engine, SeededStreams(0),
        ...               default_link=LinkSpec(loss_rate=0.3))
        >>> received = []
        >>> a = ReliableEndpoint("a", net, engine, lambda src, p: None)
        >>> b = ReliableEndpoint("b", net, engine,
        ...                      lambda src, p: received.append(p))
        >>> for i in range(20):
        ...     a.send("b", i)
        >>> engine.run(until=1000)
        >>> received == list(range(20))
        True
    """

    def __init__(
        self,
        name: str,
        network: Network,
        engine: Engine,
        on_payload: Callable[[str, Any], None],
        *,
        retransmit_interval: float = 1.0,
        max_retries: int | None = 100,
        backoff: float = 1.0,
        max_interval: float | None = None,
    ) -> None:
        if retransmit_interval <= 0:
            raise SimulationError("retransmit_interval must be positive")
        if backoff < 1.0:
            raise SimulationError("backoff must be >= 1.0")
        if max_interval is not None and max_interval < retransmit_interval:
            raise SimulationError("max_interval must be >= retransmit_interval")
        self.name = name
        self.network = network
        self.engine = engine
        self.on_payload = on_payload
        self.retransmit_interval = retransmit_interval
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_interval = max_interval
        self.closed = False
        self._outbound: dict[str, _OutboundState] = {}
        self._inbound: dict[str, _InboundState] = {}
        self.frames_sent = 0
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.frames_dropped_closed = 0
        network.register(name, self)

    # -- sending -------------------------------------------------------------------

    def send(self, dst: str, payload: Any) -> None:
        """Queue ``payload`` for reliable delivery to endpoint ``dst``."""
        if self.closed:
            raise SimulationError(f"{self.name}: send on a closed endpoint")
        state = self._outbound.setdefault(dst, _OutboundState())
        seq = state.next_seq
        state.next_seq += 1
        state.unacked[seq] = payload
        self._transmit(dst, seq, payload)
        self._arm_retransmit(dst)

    def _transmit(self, dst: str, seq: int, payload: Any) -> None:
        self.frames_sent += 1
        self.network.send(self.name, dst, ReliablePayload(seq, payload))

    def _retransmit_delay(self, state: _OutboundState) -> float:
        delay = self.retransmit_interval * (self.backoff ** state.retries)
        if self.max_interval is not None and delay > self.max_interval:
            delay = self.max_interval
        return delay

    def _arm_retransmit(self, dst: str) -> None:
        state = self._outbound[dst]
        if state.timer is not None:
            return

        def timer() -> None:
            state.timer = None
            if self.closed or not state.unacked:
                return
            if self.max_retries is not None and state.retries >= self.max_retries:
                raise SimulationError(
                    f"{self.name}->{dst}: gave up after {state.retries} retries"
                )
            state.retries += 1
            for seq in sorted(state.unacked):
                self.retransmissions += 1
                self._transmit(dst, seq, state.unacked[seq])
            self._arm_retransmit(dst)

        state.timer = self.engine.schedule_after(
            self._retransmit_delay(state), timer, label=f"rexmit {self.name}->{dst}"
        )

    # -- lifecycle (crash/restart) -----------------------------------------------------

    def close(self) -> None:
        """Tear the endpoint down: cancel every outstanding retransmit timer.

        Without this, a torn-down endpoint's timers keep firing into the
        dead object — retransmitting frames from a process that no longer
        exists and eventually crashing the whole run via ``gave up``.
        Sequence state is retained (it models the durable mail-queue
        journal); :meth:`reopen` resumes from it. Idempotent.
        """
        self.closed = True
        for state in self._outbound.values():
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None

    def reopen(self) -> None:
        """Restart after :meth:`close`: re-arm retransmission of unacked frames."""
        if not self.closed:
            return
        self.closed = False
        # Sorted so the timer-arming order (and hence the engine's
        # same-instant tie-break order) is independent of dict insertion
        # history — a journal-restored endpoint behaves identically to
        # one that lived through the crash in memory.
        for dst, state in sorted(self._outbound.items()):
            if state.unacked:
                state.retries = 0
                self._arm_retransmit(dst)

    # -- durable state (crash/restart with a persistent store) -------------------------

    def state_dict(self, payload: Any = None) -> dict[str, Any]:
        """The endpoint's :data:`ENDPOINT` journal; ``payload`` is the
        :mod:`repro.records` shape of the frames (kept as is if ``None``)."""
        return records.dump(ENDPOINT, self, payload)

    def load_state(self, state: dict[str, Any], payload: Any = None) -> None:
        """Replace the sequence state with a :meth:`state_dict` journal.

        Disk is authoritative: existing in-memory queues are discarded
        wholesale. Call on a closed endpoint, then :meth:`reopen` to
        re-arm retransmission of the rehydrated unacked frames. A
        malformed journal raises ``SimulationError`` naming the field,
        before any change.
        """
        values = records.load(
            ENDPOINT, state, "endpoint journal", self.name, payload
        )
        for old in self._outbound.values():
            if old.timer is not None:
                old.timer.cancel()
                old.timer = None
        records.assign(ENDPOINT, self, values, "endpoint journal", self.name)

    # -- receiving -------------------------------------------------------------------

    def on_message(self, src: str, message: object) -> None:
        """Network-facing entry point (frames and acks)."""
        if self.closed:
            # A crashed process receives nothing; the wire frame is lost
            # (the sender's retransmission timer recovers it later).
            self.frames_dropped_closed += 1
            return
        if isinstance(message, ReliableAck):
            self._handle_ack(src, message)
        elif isinstance(message, ReliablePayload):
            self._handle_frame(src, message)
        else:
            raise SimulationError(
                f"{self.name}: unexpected raw message {message!r} from {src}"
            )

    def _handle_ack(self, src: str, ack: ReliableAck) -> None:
        state = self._outbound.setdefault(src, _OutboundState())
        progressed = False
        for seq in list(state.unacked):
            if seq < ack.next_expected:
                del state.unacked[seq]
                progressed = True
        if progressed:
            # The link is alive: reset the give-up counter and backoff.
            state.retries = 0

    def _handle_frame(self, src: str, frame: ReliablePayload) -> None:
        state = self._inbound.setdefault(src, _InboundState())
        if frame.seq < state.next_expected:
            self.duplicates_dropped += 1
        elif frame.seq == state.next_expected:
            self.on_payload(src, frame.payload)
            state.next_expected += 1
            # Drain any buffered successors.
            while state.next_expected in state.buffer:
                self.on_payload(src, state.buffer.pop(state.next_expected))
                state.next_expected += 1
        elif frame.seq in state.buffer:
            self.duplicates_dropped += 1
        else:
            state.buffer[frame.seq] = frame.payload
        # Cumulative ack (also re-acks duplicates so the sender converges).
        self.network.send(self.name, src, ReliableAck(state.next_expected))

    # -- introspection -----------------------------------------------------------------

    def unacked_count(self, dst: str) -> int:
        """Frames to ``dst`` not yet acknowledged."""
        state = self._outbound.get(dst)
        return len(state.unacked) if state else 0

    def all_delivered(self) -> bool:
        """Whether every sent frame has been acknowledged."""
        return all(not s.unacked for s in self._outbound.values())

