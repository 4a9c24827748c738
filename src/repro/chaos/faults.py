"""Fault injection over the simulated network.

:class:`FaultyNetwork` extends :class:`~repro.sim.network.Network` with
the four classic message faults — drop, duplicate, reorder, delay — plus
node down/up state for the crash model. (Overload, the fifth fault
family, is not a wire fault: a document's floods are ordinary traffic,
:class:`~repro.sim.workload.FloodSpec`.) One fault mix applies to every
directed link, and each fault type on each link draws from its own named
RNG stream (``chaos:drop:a->b``, ``chaos:dup:a->b``, …), so changing one
fault rate never perturbs the random decisions of another: campaigns
stay bit-reproducible and *comparable* across fault mixes.

Reordering uses the network's ``fifo=False`` scheduling escape hatch: a
reordered message is delayed past later traffic without moving the link's
FIFO floor, so only the victim message is displaced. Composing this layer
under :class:`~repro.sim.reliable.ReliableEndpoint` restores exactly-once
in-order delivery — which is precisely the property chaos campaigns
exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..obs.trace import TraceRecorder
from ..sim.engine import Engine
from ..sim.network import LinkSpec, Network
from ..sim.rng import SeededStreams

__all__ = ["FaultSpec", "NO_FAULTS", "FaultyNetwork"]


@dataclass(frozen=True)
class FaultSpec:
    """Fault mix for a directed link.

    Attributes:
        drop_rate: Probability in ``[0, 1]`` that a message is silently
            dropped (on top of the link's own ``loss_rate``).
        duplicate_rate: Probability that a message is delivered twice;
            each copy draws its own delay, so the copies usually arrive
            at different times (and possibly out of order).
        reorder_rate: Probability that a message is scheduled outside the
            link's FIFO discipline with up to ``reorder_delay`` extra
            latency, letting later traffic overtake it.
        reorder_delay: Maximum extra delay (seconds) for a reordered
            message.
        extra_delay: Uniform extra latency in ``[0, extra_delay]`` added
            to every message (degraded-link model).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay: float = 2.0
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{name} {rate} outside [0, 1]")
        if self.reorder_delay < 0 or self.extra_delay < 0:
            raise SimulationError("fault delays must be non-negative")

    @property
    def active(self) -> bool:
        """Whether this spec perturbs traffic at all."""
        return (
            self.drop_rate > 0
            or self.duplicate_rate > 0
            or self.reorder_rate > 0
            or self.extra_delay > 0
        )


NO_FAULTS = FaultSpec()


class FaultyNetwork(Network):
    """A :class:`Network` with per-link fault injection and node crashes.

    Args:
        default_faults: Fault mix applied to every link. Each directed
            link draws its faults from its own RNG streams.

    Down nodes model fail-stop crashes: a down source sends nothing and a
    message arriving at a down endpoint is dropped on the wire (in-flight
    frames are lost by a crash; any reliability layer above recovers them
    by retransmission once the node is back).
    """

    def __init__(
        self,
        engine: Engine,
        streams: SeededStreams,
        *,
        default_link: LinkSpec | None = None,
        default_faults: FaultSpec | None = None,
        tracer: TraceRecorder | None = None,
    ) -> None:
        super().__init__(engine, streams, default_link=default_link, tracer=tracer)
        self._faults = default_faults or NO_FAULTS
        # Per-link fault RNG bundle: (drop, dup, reorder, delay).
        self._fault_cache: dict[tuple[str, str], tuple] = {}
        self._down: set[str] = set()
        self.faults_dropped = 0
        self.faults_duplicated = 0
        self.faults_reordered = 0
        self.dropped_down = 0

    # -- fault streams ---------------------------------------------------------

    def _resolve_faults(self, key: tuple[str, str]) -> tuple:
        src, dst = key
        streams = self._streams
        cached = (
            streams.get(f"chaos:drop:{src}->{dst}"),
            streams.get(f"chaos:dup:{src}->{dst}"),
            streams.get(f"chaos:reorder:{src}->{dst}"),
            streams.get(f"chaos:delay:{src}->{dst}"),
        )
        self._fault_cache[key] = cached
        return cached

    # -- crash state -----------------------------------------------------------

    def set_down(self, name: str) -> None:
        """Mark a node as crashed; its traffic stops both ways."""
        if name not in self._endpoints:
            raise SimulationError(f"unknown endpoint {name!r}")
        self._down.add(name)

    def set_up(self, name: str) -> None:
        """Mark a crashed node as restarted."""
        self._down.discard(name)

    def is_down(self, name: str) -> bool:
        """Whether ``name`` is currently crashed."""
        return name in self._down

    @property
    def down_nodes(self) -> frozenset[str]:
        """The currently crashed nodes."""
        return frozenset(self._down)

    # -- transmission ----------------------------------------------------------

    def send(self, src: str, dst: str, payload: object, *, size: int = 0) -> None:
        key = (src, dst)
        cached = self._link_cache.get(key)
        if cached is None:
            cached = self._resolve(key)
        spec, stream, label, endpoint = cached
        self.messages_sent += 1
        self.bytes_sent += size
        for tap in self._taps:
            tap(src, dst, payload)
        tracer = self.tracer

        if src in self._down:
            # A dead process transmits nothing.
            self.dropped_down += 1
            if tracer.enabled:
                tracer.emit("fault", src=src, dst=dst, action="down")
            return

        if spec.loss_rate > 0 and stream.random() < spec.loss_rate:
            self.messages_dropped += 1
            if tracer.enabled:
                tracer.emit("net.drop", src=src, dst=dst)
            return

        fcached = self._fault_cache.get(key)
        if fcached is None:
            fcached = self._resolve_faults(key)
        drop_rng, dup_rng, reorder_rng, delay_rng = fcached
        faults = self._faults

        if faults.drop_rate > 0 and drop_rng.random() < faults.drop_rate:
            self.faults_dropped += 1
            self.messages_dropped += 1
            if tracer.enabled:
                tracer.emit("fault", src=src, dst=dst, action="drop")
            return

        copies = 1
        if faults.duplicate_rate > 0 and dup_rng.random() < faults.duplicate_rate:
            copies = 2
            self.faults_duplicated += 1
            if tracer.enabled:
                tracer.emit("fault", src=src, dst=dst, action="duplicate")

        for _ in range(copies):
            delay = spec.base_latency
            if spec.jitter > 0:
                delay += stream.uniform(0.0, spec.jitter)
            if faults.extra_delay > 0:
                delay += delay_rng.uniform(0.0, faults.extra_delay)
            fifo = True
            if faults.reorder_rate > 0 and reorder_rng.random() < faults.reorder_rate:
                # Push this message past the FIFO floor without moving the
                # floor itself: later traffic overtakes it.
                delay += reorder_rng.uniform(0.0, faults.reorder_delay)
                fifo = False
                self.faults_reordered += 1
                if tracer.enabled:
                    tracer.emit("fault", src=src, dst=dst, action="reorder")
            if delay == 0.0 and fifo and not self._pending.get(key):
                self._deliver(key, endpoint, src, payload)
            else:
                self._schedule_delivery(
                    key, endpoint, src, payload, delay, label, fifo=fifo
                )

    def _deliver(
        self, key: tuple[str, str], endpoint, src: str, payload: object
    ) -> None:
        # Crash semantics: a frame in flight toward (or from) a node that
        # is down at delivery time is lost on the wire.
        if key[1] in self._down or src in self._down:
            self.dropped_down += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit("fault", src=src, dst=key[1], action="down")
            return
        super()._deliver(key, endpoint, src, payload)
