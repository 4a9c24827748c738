"""A simulated message network between named endpoints.

The network delivers opaque payloads between registered endpoints with
configurable latency and loss, one spec for every link, each link
drawing from its own RNG stream. Delivery order per (src, dst) pair
is FIFO even under random latency — the Zmail paper's channel model
(Section 3) requires in-order delivery, so the network enforces it by never
scheduling a delivery earlier than the previous one on the same link.

Zero-latency links take an inline fast path: when nothing is in flight on
the link, the payload is handed to the destination endpoint synchronously
(same virtual time, same FIFO order) instead of through the event heap.
This keeps million-message macro scenarios cheap without changing any
observable ordering; if a scheduled message is pending on the link, the
zero-delay send falls back to the heap behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..errors import SimulationError
from ..obs.trace import NULL_TRACER, TraceRecorder
from .engine import Engine
from .rng import SeededStreams

__all__ = ["LinkSpec", "Network", "Endpoint"]


class Endpoint(Protocol):
    """Anything that can receive a payload from the network."""

    def on_message(self, src: str, payload: object) -> None:
        """Handle a delivered payload sent by endpoint ``src``."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class LinkSpec:
    """Delivery characteristics of a directed link.

    Attributes:
        base_latency: Fixed propagation delay in seconds.
        jitter: Uniform extra delay in ``[0, jitter]`` seconds.
        loss_rate: Probability in ``[0, 1]`` that a message is dropped.
    """

    base_latency: float = 0.05
    jitter: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.jitter < 0:
            raise SimulationError("link latency and jitter must be non-negative")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise SimulationError(f"loss_rate {self.loss_rate} outside [0, 1]")


class Network:
    """FIFO message delivery between named endpoints on a shared engine.

    Example:
        >>> eng = Engine()
        >>> net = Network(eng, SeededStreams(1))
        >>> inbox = []
        >>> class Sink:
        ...     def on_message(self, src, payload):
        ...         inbox.append((src, payload))
        >>> net.register("a", Sink())
        >>> net.register("b", Sink())
        >>> net.send("a", "b", "hello")
        >>> eng.run()
        >>> inbox
        [('a', 'hello')]
    """

    def __init__(
        self,
        engine: Engine,
        streams: SeededStreams,
        *,
        default_link: LinkSpec | None = None,
        tracer: TraceRecorder | None = None,
    ) -> None:
        self.engine = engine
        self._streams = streams
        # Observability: loss-rate drops emit a ``net.drop`` event; the
        # guard keeps the per-message cost at one attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._default_link = default_link or LinkSpec()
        self._endpoints: dict[str, Endpoint] = {}
        # Per-link hot-path cache: (spec, rng stream, delivery label,
        # endpoint). Built lazily on first send over a link so the
        # per-message path does no string formatting or spec resolution.
        self._link_cache: dict[
            tuple[str, str], tuple[LinkSpec, object, str, Endpoint]
        ] = {}
        # Last scheduled delivery time per directed link, for FIFO enforcement.
        self._last_delivery: dict[tuple[str, str], float] = {}
        # Scheduled-but-undelivered messages per directed link. A
        # zero-delay send may only take the inline fast path while this
        # is zero, otherwise it would overtake an in-flight message.
        self._pending: dict[tuple[str, str], int] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # -- topology --------------------------------------------------------------

    def register(self, name: str, endpoint: Endpoint) -> None:
        """Attach ``endpoint`` under ``name``; names must be unique."""
        if name in self._endpoints:
            raise SimulationError(f"endpoint {name!r} already registered")
        self._endpoints[name] = endpoint

    # -- transmission ------------------------------------------------------------

    def _resolve(self, key: tuple[str, str]) -> tuple[LinkSpec, object, str, Endpoint]:
        """Build (and cache) the per-link hot-path tuple for ``key``."""
        src, dst = key
        if src not in self._endpoints:
            raise SimulationError(f"unknown source endpoint {src!r}")
        if dst not in self._endpoints:
            raise SimulationError(f"unknown destination endpoint {dst!r}")
        cached = (
            self._default_link,
            self._streams.get(f"net:{src}->{dst}"),
            f"deliver {src}->{dst}",
            self._endpoints[dst],
        )
        self._link_cache[key] = cached
        return cached

    def send(self, src: str, dst: str, payload: object, *, size: int = 0) -> None:
        """Send ``payload`` from ``src`` to ``dst``.

        Args:
            size: Nominal wire size in bytes, counted in :attr:`bytes_sent`
                for bandwidth accounting; does not affect latency.

        Raises:
            SimulationError: if either endpoint is unknown.
        """
        key = (src, dst)
        cached = self._link_cache.get(key)
        if cached is None:
            cached = self._resolve(key)
        spec, stream, label, endpoint = cached
        self.messages_sent += 1
        self.bytes_sent += size

        if spec.loss_rate > 0 and stream.random() < spec.loss_rate:
            self.messages_dropped += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit("net.drop", src=src, dst=dst)
            return

        delay = spec.base_latency
        if spec.jitter > 0:
            delay += stream.uniform(0.0, spec.jitter)
        if delay == 0.0 and not self._pending.get(key):
            # Inline fast path: a zero-latency link with nothing in flight
            # delivers synchronously — same virtual time, same FIFO order,
            # but no Event/closure/heap traffic. This is what makes
            # zero-latency macro scenarios cheap at millions of messages.
            self.messages_delivered += 1
            endpoint.on_message(src, payload)
            return
        self._schedule_delivery(key, endpoint, src, payload, delay, label)

    def _schedule_delivery(
        self,
        key: tuple[str, str],
        endpoint: Endpoint,
        src: str,
        payload: object,
        delay: float,
        label: str,
        *,
        fifo: bool = True,
    ) -> None:
        """Schedule a heap delivery on the link ``key`` after ``delay``.

        With ``fifo=True`` (the normal path) the delivery is clamped to
        never overtake an earlier message on the same link. ``fifo=False``
        is the escape hatch for fault injection: a reordered message is
        scheduled at its raw time and may overtake in-flight traffic,
        without moving the link's FIFO floor for later messages.
        """
        deliver_at = self.engine.now + delay
        if fifo:
            # FIFO: never deliver before an earlier message on the same link.
            earliest = self._last_delivery.get(key, 0.0)
            if deliver_at < earliest:
                deliver_at = earliest
            self._last_delivery[key] = deliver_at
        self._pending[key] = self._pending.get(key, 0) + 1

        def deliver() -> None:
            self._pending[key] -= 1
            self._deliver(key, endpoint, src, payload)

        self.engine.schedule_at(deliver_at, deliver, label=label)

    def _deliver(
        self, key: tuple[str, str], endpoint: Endpoint, src: str, payload: object
    ) -> None:
        """Hand a scheduled message to its endpoint (fault-injection hook)."""
        self.messages_delivered += 1
        endpoint.on_message(src, payload)
