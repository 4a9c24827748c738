"""Overload protection: admission control, load shedding, bounded retry.

The paper's economic argument assumes compliant ISPs stay up under the
very floods they are designed to price out — a spammer's last rational
move is a burst that overwhelms the gateway before accounting can bite.
This module provides the building blocks of the overload layer:

* :class:`TokenBucket` — a virtual-time token bucket bounding the
  sustained admission rate of each ISP (plus a configurable burst);
* :class:`DeferredQueue` — a **bounded** deferred-delivery queue with
  capped exponential-backoff retries; saturation evicts the
  lowest-priority queued message rather than growing without limit;
* :class:`ShedClass` — the shedding priority order: bulk (spam/zombie)
  traffic sheds first, unpaid mail next, paid compliant mail last;
* :class:`ShedAudit` — a bounded audit log so every shed/evict decision
  is attributable after the fact;
* :class:`AdmissionController` — the per-ISP policy combining the above,
  maintaining the *no-lost-accounting* identity
  ``attempts == accepted + shed + bounced + pending``;
* :class:`CircuitBreaker` — closed/open/half-open breaker guarding
  inter-ISP transfer and bank snapshot RPCs so a saturated peer degrades
  service instead of cascading.

Everything is driven by explicit ``now`` arguments (virtual seconds), so
the layer is deterministic and works identically under the discrete-event
engine, the direct-mode driver, and the SMTP gateway.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterator

from .. import records
from ..errors import ConfigError
from ..records import PAYLOAD, Field, List, Record
from ..sim.workload import TrafficKind

__all__ = [
    "OverloadConfig",
    "ShedClass",
    "shed_class_for",
    "TokenBucket",
    "DeferredItem",
    "DeferredQueue",
    "ShedRecord",
    "ShedAudit",
    "ADMISSION",
    "AdmissionController",
    "CircuitBreaker",
]


@dataclass(frozen=True)
class OverloadConfig:
    """Tunable parameters of the overload-protection layer.

    Attributes:
        admit_rate: Sustained admissions per second each ISP can process;
            the token bucket's refill rate (the "sustainable load").
        admit_burst: Bucket capacity — how large a burst is absorbed
            without deferring.
        queue_capacity: Hard bound on each ISP's deferred-delivery queue.
            Saturation beyond this sheds (new low-priority mail) or
            evicts (queued mail of lower priority than the arrival).
        retry_base: Delay before a deferred message's first retry.
        retry_backoff: Multiplier applied to the retry delay per attempt.
        retry_max_interval: Cap on the backed-off retry delay.
        max_retries: Delivery attempts before a deferred message is
            terminally bounced.
        shed_audit_cap: Maximum shed/evict/bounce records retained per
            ISP (the log is a bounded ring, never an unbounded list).
        breaker_failure_threshold: Consecutive failures before a circuit
            breaker opens.
        breaker_reset_timeout: Seconds an open breaker waits before
            letting one half-open trial through.
        breaker_backlog_limit: Unacked-frame backlog on a reliable link
            beyond which the transfer breaker counts a failure.
    """

    admit_rate: float = 50.0
    admit_burst: int = 100
    queue_capacity: int = 512
    retry_base: float = 2.0
    retry_backoff: float = 2.0
    retry_max_interval: float = 120.0
    max_retries: int = 4
    shed_audit_cap: int = 256
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 30.0
    breaker_backlog_limit: int = 256

    def __post_init__(self) -> None:
        if self.admit_rate <= 0:
            raise ConfigError("admit_rate must be positive")
        if self.admit_burst < 1:
            raise ConfigError("admit_burst must be at least 1")
        if self.queue_capacity < 0:
            raise ConfigError("queue_capacity must be non-negative")
        if self.retry_base <= 0 or self.retry_backoff < 1.0:
            raise ConfigError("retry_base must be > 0 and retry_backoff >= 1")
        if self.retry_max_interval < self.retry_base:
            raise ConfigError("retry_max_interval must be >= retry_base")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.shed_audit_cap < 1:
            raise ConfigError("shed_audit_cap must be at least 1")
        if self.breaker_failure_threshold < 1:
            raise ConfigError("breaker_failure_threshold must be at least 1")
        if self.breaker_reset_timeout <= 0:
            raise ConfigError("breaker_reset_timeout must be positive")
        if self.breaker_backlog_limit < 1:
            raise ConfigError("breaker_backlog_limit must be at least 1")

    def retry_delay(self, attempts: int) -> float:
        """The backoff delay before attempt ``attempts + 1``."""
        delay = self.retry_base * (self.retry_backoff ** attempts)
        return min(delay, self.retry_max_interval)


class ShedClass(IntEnum):
    """Shedding priority: lower values shed first.

    The policy mirrors the economics: mail that *pays* (and therefore
    funds the compliant ISP) is the last to be turned away; bulk traffic
    (spam campaigns, zombie bursts) — the very traffic overload protection
    exists to absorb — goes first.
    """

    BULK = 0  # spam / zombie bursts: shed first
    UNPAID = 1  # mail to or from non-compliant ISPs: no payment attaches
    PAID = 2  # paid compliant mail: sheds last


def shed_class_for(kind: TrafficKind, *, paid: bool) -> ShedClass:
    """Classify one send for the shedding policy.

    Args:
        kind: The workload-declared traffic kind.
        paid: Whether the send would carry an e-penny (compliant source
            *and* destination).
    """
    if kind is TrafficKind.SPAM or kind is TrafficKind.ZOMBIE:
        return ShedClass.BULK
    return ShedClass.PAID if paid else ShedClass.UNPAID


class TokenBucket:
    """A deterministic token bucket over virtual time.

    Tokens refill continuously at ``rate`` per second up to ``capacity``;
    :meth:`try_acquire` consumes one if available. All timing is explicit
    (the ``now`` arguments), so behaviour is reproducible under any
    driver.
    """

    __slots__ = ("rate", "capacity", "tokens", "_last")

    def __init__(self, rate: float, capacity: int) -> None:
        if rate <= 0 or capacity < 1:
            raise ConfigError("token bucket needs rate > 0 and capacity >= 1")
        self.rate = rate
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(
                self.capacity, self.tokens + (now - self._last) * self.rate
            )
            self._last = now

    def available(self, now: float) -> float:
        """Tokens available at ``now`` (refills as a side effect)."""
        self._refill(now)
        return self.tokens

    def try_acquire(self, now: float, n: int = 1) -> bool:
        """Consume ``n`` tokens if available; ``False`` leaves state intact."""
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


@dataclass(slots=True)
class DeferredItem:
    """One message held in a deferred-delivery queue.

    ``payload`` is opaque to the queue — the core stores the send tuple,
    the SMTP gateway stores the stamped envelope ingredients. ``attempts``
    counts delivery attempts already consumed (admission + retries);
    ``cancelled`` marks items evicted in place (lazy heap deletion).
    """

    payload: object
    shed_class: ShedClass
    due: float
    seq: int
    attempts: int = 1
    enqueued_at: float = 0.0
    cancelled: bool = False


class DeferredQueue:
    """A bounded retry queue ordered by next-attempt time.

    Eviction (:meth:`evict_lowest`) implements the priority-shedding
    policy: when the queue is full and a higher-class message arrives,
    the lowest-class queued message is bounced to make room. Evicted
    items are tombstoned in the heap and skipped on pop, so eviction is
    O(n) only at shed time (the queue is bounded, so n is small).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._heap: list[tuple[float, int, DeferredItem]] = []
        self._seq = 0
        self._live = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return self._live

    @property
    def size(self) -> int:
        """Live (non-evicted) items currently queued."""
        return self._live

    def push(self, item: DeferredItem) -> None:
        """Queue ``item`` for retry at ``item.due``; caller checks capacity."""
        self._seq += 1
        item.seq = self._seq
        heapq.heappush(self._heap, (item.due, item.seq, item))
        self._live += 1
        if self._live > self.peak_size:
            self.peak_size = self._live

    def pop_due(self, now: float) -> Iterator[DeferredItem]:
        """Yield (and remove) every live item whose retry time has come."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, _, item = heapq.heappop(heap)
            if item.cancelled:
                continue
            self._live -= 1
            yield item

    def evict_lowest(self, below: ShedClass) -> DeferredItem | None:
        """Tombstone and return the lowest-class queued item strictly below
        ``below``, oldest first within a class; ``None`` if no item
        qualifies (the arrival sheds instead)."""
        victim: DeferredItem | None = None
        for _, _, item in self._heap:
            if item.cancelled or item.shed_class >= below:
                continue
            if (
                victim is None
                or item.shed_class < victim.shed_class
                or (item.shed_class == victim.shed_class and item.seq < victim.seq)
            ):
                victim = item
        if victim is not None:
            victim.cancelled = True
            self._live -= 1
        return victim

    @property
    def items(self) -> list[DeferredItem]:
        """The live items in retry order: the queue's durable form."""
        live = [entry for entry in self._heap if not entry[2].cancelled]
        live.sort(key=lambda entry: entry[:2])
        return [item for _, _, item in live]

    @items.setter
    def items(self, items: list[DeferredItem]) -> None:
        self._heap = [(item.due, item.seq, item) for item in items]
        heapq.heapify(self._heap)
        self._live = len(items)

    def next_due(self) -> float | None:
        """Earliest live retry time, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None


@dataclass(frozen=True, slots=True)
class ShedRecord:
    """One audited overload decision (shed, evict, or bounce)."""

    time: float
    action: str  # "shed" | "evict" | "bounce"
    shed_class: ShedClass
    detail: str


class ShedAudit:
    """A bounded ring of :class:`ShedRecord` plus total counts.

    The ring keeps the *most recent* ``cap`` records — under a sustained
    flood the interesting decisions are the latest ones — while the
    per-action totals stay exact, so reports lose no aggregate signal.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.records: list[ShedRecord] = []
        self.total = 0
        self.totals_by_action: dict[str, int] = {}

    def record(
        self, time: float, action: str, shed_class: ShedClass, detail: str
    ) -> None:
        """Append one decision, evicting the oldest past the cap."""
        self.total += 1
        self.totals_by_action[action] = self.totals_by_action.get(action, 0) + 1
        self.records.append(ShedRecord(time, action, shed_class, detail))
        if len(self.records) > self.cap:
            del self.records[0]


#: An admission controller's journal. The deferred queue *is*
#: accepted-but-undelivered mail and the counters are the other side of
#: the no-lost-accounting identity, so both survive a restart; the audit
#: ring is volatile. ``counters`` groups the controller's own attributes.
ADMISSION = Record(
    Field("bucket", Record(
        Field("tokens", float), Field("last", float, attr="_last")
    )),
    Field("queue", Record(
        Field("seq", int, 0, attr="_seq"),
        Field("peak_size", int, 0),
        Field("items", List(Record(
            Field("payload", PAYLOAD),
            Field("shed_class", ShedClass),
            Field("due", float),
            Field("seq", int, 0),
            Field("attempts", int, 0),
            Field("enqueued_at", float),
            cls=DeferredItem,
        ))),
    )),
    Field("counters", Record(*(
        Field(name, int, 0) for name in (
            "attempts", "accepted", "accepted_after_defer", "shed",
            "bounced", "evicted", "retries",
        )
    )), attr=""),
)


class AdmissionController:
    """Per-ISP admission control: token bucket + bounded deferred queue.

    Decisions (:meth:`admit`):

    * ``"accept"`` — a token was available; process the message now.
    * ``"defer"``  — saturated but the queue has (or made) room; the
      caller queues the message via :meth:`defer` and retries later.
    * ``"shed"``   — saturated, queue full, and nothing lower-priority to
      evict; the message is refused (SMTP ``451``), recorded for audit.

    The controller maintains the no-lost-accounting identity checked by
    the chaos monitors::

        attempts == accepted + shed + bounced + pending

    where ``accepted`` counts both immediate and after-defer acceptances
    and ``pending`` is the live deferred-queue size. Shed and bounced
    messages never touched the ledger, so e-penny conservation is
    unaffected by any admission decision.
    """

    def __init__(self, owner: str, config: OverloadConfig) -> None:
        self.owner = owner
        self.config = config
        self.bucket = TokenBucket(config.admit_rate, config.admit_burst)
        self.queue = DeferredQueue(config.queue_capacity)
        self.audit = ShedAudit(config.shed_audit_cap)
        #: Optional hook fired for every terminal bounce — including
        #: evictions inside :meth:`admit`, whose victims the caller never
        #: sees otherwise. The SMTP gateway uses it to count and trace bounces.
        self.on_bounce: Callable[[float, DeferredItem, str], None] | None = None
        self.attempts = 0
        self.accepted = 0
        self.accepted_after_defer = 0
        self.shed = 0
        self.bounced = 0
        self.evicted = 0
        self.retries = 0

    # -- admission ---------------------------------------------------------------

    def admit(self, now: float, shed_class: ShedClass) -> str:
        """Decide one *new* message; returns "accept" | "defer" | "shed".

        An ``"accept"`` has consumed a token; a ``"defer"`` has reserved
        queue room (evicting a lower-class item if necessary — the
        eviction is already bounced and audited when this returns); a
        ``"shed"`` is terminal and audited.
        """
        self.attempts += 1
        if self.bucket.try_acquire(now):
            self.accepted += 1
            return "accept"
        if self.queue.size < self.queue.capacity:
            return "defer"
        victim = self.queue.evict_lowest(shed_class)
        if victim is not None:
            self.evicted += 1
            self._bounce(now, victim, "evicted by higher-priority arrival")
            self.audit.record(
                now, "evict", victim.shed_class,
                f"{self.owner}: class {victim.shed_class.name} evicted for "
                f"{shed_class.name} arrival",
            )
            return "defer"
        self.shed += 1
        self.audit.record(
            now, "shed", shed_class,
            f"{self.owner}: queue full ({self.queue.capacity}), "
            f"no lower class to evict",
        )
        return "shed"

    def defer(
        self, now: float, payload: object, shed_class: ShedClass
    ) -> DeferredItem:
        """Queue a message :meth:`admit` answered ``"defer"`` for."""
        item = DeferredItem(
            payload=payload,
            shed_class=shed_class,
            due=now + self.config.retry_delay(0),
            seq=0,
            attempts=1,
            enqueued_at=now,
        )
        self.queue.push(item)
        return item

    # -- retry pump --------------------------------------------------------------

    def pump(self, now: float) -> Iterator[tuple[str, DeferredItem]]:
        """Process due retries; yields ("accept" | "bounce", item) pairs.

        For each yielded ``"accept"`` a token has been consumed and the
        caller must perform the actual delivery; ``"bounce"`` items are
        terminal (already counted and audited). Items that find no token
        but still have retry budget are requeued with backoff internally.
        """
        for item in self.queue.pop_due(now):
            if self.bucket.try_acquire(now):
                self.accepted += 1
                self.accepted_after_defer += 1
                self.retries += 1
                yield "accept", item
            elif item.attempts > self.config.max_retries:
                self._bounce(now, item, "retries exhausted")
                yield "bounce", item
            else:
                self.retries += 1
                item.attempts += 1
                item.due = now + self.config.retry_delay(item.attempts - 1)
                self.queue.push(item)

    def _bounce(self, now: float, item: DeferredItem, reason: str) -> None:
        self.bounced += 1
        self.audit.record(
            now, "bounce", item.shed_class,
            f"{self.owner}: {reason} after {item.attempts} attempt(s)",
        )
        if self.on_bounce is not None:
            self.on_bounce(now, item, reason)

    # -- durable state (crash/restart with a persistent store) -------------------

    def state_dict(self, payload: object = None) -> dict[str, object]:
        """The controller's :data:`ADMISSION` journal; ``payload`` is the
        :mod:`repro.records` shape of the queued payloads (kept as is if
        ``None``)."""
        return records.dump(ADMISSION, self, payload)

    def load_state(self, state: dict[str, object], payload: object = None) -> None:
        """Replace queue/bucket/counters with a :meth:`state_dict` journal.

        Items are rebuilt with their original sequence numbers (bypassing
        :meth:`DeferredQueue.push`, which would renumber them) so retry
        order after a restart matches the uninterrupted run exactly. A
        malformed journal raises ``SimulationError`` naming the field,
        before any change.
        """
        records.load_into(
            ADMISSION, self, state, "admission journal", self.owner, payload
        )

    # -- introspection ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Live deferred messages awaiting retry."""
        return self.queue.size

    @property
    def peak_pending(self) -> int:
        """High-water mark of the deferred queue."""
        return self.queue.peak_size

    def next_due(self) -> float | None:
        """Earliest pending retry time, or ``None``."""
        return self.queue.next_due()

    def accounting_delta(self) -> int:
        """``attempts - (accepted + shed + bounced + pending)``; 0 when no
        admitted message has been lost or double-counted."""
        return self.attempts - (
            self.accepted + self.shed + self.bounced + self.pending
        )


class CircuitBreaker:
    """A closed/open/half-open circuit breaker over virtual time.

    ``record_failure`` past the threshold opens the breaker; while open,
    :meth:`allow` answers ``False`` (counting the short-circuit) until
    ``reset_timeout`` has elapsed, after which exactly one half-open
    trial is let through. A success in half-open closes the breaker; a
    failure re-opens it (and restarts the timeout).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, *, failure_threshold: int, reset_timeout: float) -> None:
        if failure_threshold < 1 or reset_timeout <= 0:
            raise ConfigError(
                "breaker needs failure_threshold >= 1 and reset_timeout > 0"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.times_opened = 0
        self.calls_shorted = 0

    def allow(self, now: float) -> bool:
        """Whether a call may proceed; an open breaker counts the refusal."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self.opened_at >= self.reset_timeout:
                self.state = self.HALF_OPEN
                return True
            self.calls_shorted += 1
            return False
        # Half-open: one trial is already in flight.
        self.calls_shorted += 1
        return False

    def record_success(self) -> None:
        """The guarded call succeeded; close the breaker."""
        self.state = self.CLOSED
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """The guarded call failed; open past the threshold (or in trial)."""
        self.consecutive_failures += 1
        if (
            self.state == self.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != self.OPEN:
                self.times_opened += 1
            self.state = self.OPEN
            self.opened_at = now
