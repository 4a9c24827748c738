"""The Zmail deployment glue: users, ISPs, the bank, and a transport.

:class:`ZmailNetwork` assembles a complete deployment — ``n`` ISPs (a
configurable subset compliant), ``m`` users each, one central bank — and
routes :class:`~repro.sim.workload.SendRequest` traffic through it.

A network is timed one of two ways, and both share all of the protocol
logic:

* **direct mode** (no engine): sends deliver synchronously and the
  caller's :meth:`~ZmailNetwork.note_time` applies midnight work at day
  boundaries. Fast enough for the million-message economics
  experiments; snapshots are trivially consistent.
* **engine mode** (with a :class:`~repro.sim.engine.Engine`): the engine
  is the network's only time source. Letters travel over a FIFO
  latency/loss network (or the caller's transport), overload-admission
  retries run on engine timers, and the §4.4 snapshot methods can
  actually race with in-flight mail. The caller attaches the traffic and
  the midnight chain to the engine (:meth:`Engine.add_stream`,
  :meth:`~ZmailNetwork.advance_day_to`).

The network also implements the operational conveniences the paper
describes informally: automatic e-penny top-up from a user's real-money
deposit, ISP pool rebalancing against the bank (§4.3), and the published
compliance directory.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..crypto import NonceSource
from ..errors import InsufficientBalance, SimulationError
from ..obs.trace import NULL_TRACER, TraceRecorder
from ..sim.clock import DAY
from ..sim.engine import Engine
from ..sim.metrics import MetricsRegistry
from ..sim.network import LinkSpec, Network
from ..sim.rng import SeededStreams
from ..sim.workload import Address, SendRequest, TrafficKind
from .bank import Bank
from .config import ZmailConfig
from .isp import CompliantISP, NonCompliantISP, RemoteISP
from .misbehavior import ReconciliationReport
from .overload import AdmissionController, OverloadConfig, shed_class_for
from .snapshot import (
    DirectSnapshotCoordinator,
    MarkerSnapshotCoordinator,
    SnapshotMarker,
    SnapshotReply,
    SnapshotRequest,
    TimeoutSnapshotCoordinator,
)
from .transfer import (
    RECEIPT_BLOCKED_BALANCE,
    RECEIPT_DEFERRED,
    RECEIPT_SHED,
    Letter,
    SendReceipt,
    SendStatus,
)

__all__ = ["ZmailNetwork"]


# The ledger events, built from raw values (``TraceRecorder.record``):
# ints for addresses, never ``Address`` objects, whose frozen-dataclass
# ``__hash__`` runs in Python. The emit sites below and the columnar
# executor's packed keys both record through these, so every executor
# maps its ledger to one event form.


def send_event(src_isp, src_user, dst_isp, dst_user, kind, status) -> dict:
    return {
        "type": "send",
        "src": f"user{src_user}@isp{src_isp}",
        "dst": f"user{dst_user}@isp{dst_isp}",
        "kind": kind,
        "status": status,
    }


def deliver_event(src_isp, src_user, dst_isp, dst_user, kind, ok) -> dict:
    return {
        "type": "deliver",
        "src": f"user{src_user}@isp{src_isp}",
        "dst": f"user{dst_user}@isp{dst_isp}",
        "kind": kind,
        "ok": ok,
    }


def topup_event(isp, user, amount) -> dict:
    return {"type": "topup", "isp": isp, "user": user, "amount": amount}


def trade_event(isp, op, amount) -> dict:
    return {"type": "bank.trade", "isp": isp, "op": op, "amount": amount}


class _IspEndpoint:
    """Adapter giving an ISP a :class:`~repro.sim.network.Network` mailbox."""

    def __init__(self, network: "ZmailNetwork", isp_id: int) -> None:
        self._network = network
        self.isp_id = isp_id

    def on_message(self, src: str, payload: object) -> None:
        self._network._on_isp_message(self.isp_id, payload)


class _BankEndpoint:
    """Adapter for the bank's mailbox (snapshot replies)."""

    def __init__(self, network: "ZmailNetwork") -> None:
        self._network = network

    def on_message(self, src: str, payload: object) -> None:
        self._network._on_bank_message(payload)


class ZmailNetwork:
    """A complete Zmail deployment, drivable by workload streams.

    Args:
        n_isps: Number of ISPs.
        users_per_isp: Users created at each ISP.
        compliant: Per-ISP compliance flags; defaults to all compliant.
        config: Deployment parameters shared by all compliant ISPs.
        seed: Root seed for nonces and the latency network.
        engine: The discrete-event engine that times this network
            (engine mode); omit for synchronous direct mode.
        link: Latency/loss characteristics of the built-in latency
            network, which engine mode builds when no ``transport`` is
            given.
        transport: Custom letter carrier. When set, letters that leave an
            ISP are handed to this callable instead of being delivered
            directly or via the built-in latency network; the carrier must
            eventually call :meth:`deliver_transported` for each letter
            (exactly once). This is how the chaos harness interposes
            reliable links and fault injection between ISPs.
        overload: Enable the overload-protection layer with these
            parameters: every send passes a per-ISP
            :class:`~repro.core.overload.AdmissionController` *before*
            any ledger operation, so shed/deferred outcomes never move
            value. Deferred messages retry with capped exponential
            backoff on the engine's clock and timers, and terminally
            bounce when their retry budget runs out. Needs ``engine``.
            Omit (the default) for the historical unbounded behaviour.
        overload_gate: Optional readiness predicate per ISP id; a retry
            pump for an ISP whose gate answers ``False`` (e.g. the node
            is crashed in the chaos harness) is postponed rather than
            processed, so retries never mutate a dead node's ledger.
        local_isps: Restrict materialization to this subset of ISP ids
            (the cluster runtime's shard slice). Non-local ISPs become
            :class:`~repro.core.isp.RemoteISP` placeholders: they appear
            in the compliance directory with their configured flag so
            local senders pay them correctly, but carry no users, no
            ledger and no bank account — their home shard owns those.
            Letters addressed to a remote ISP must leave through
            ``transport``. Default: every ISP is local (single-process
            behaviour, unchanged).
        tracer: Observability event bus (:mod:`repro.obs.trace`). Every
            ledger-visible step — sends, deliveries, top-ups, bank
            trades, midnights, reconciliations, overload decisions —
            emits one virtual-time-stamped event through it. Defaults
            to the shared disabled recorder; every emit site is guarded
            on ``tracer.enabled`` so the disabled path costs one
            attribute check. If the recorder has no clock yet, the
            network installs its own (engine time, or the direct-mode
            driver time advanced by :meth:`note_time`).

    Raises:
        ValueError: on an empty deployment, mismatched flags, an
            out-of-range or transport-less ``local_isps`` slice, or
            ``overload`` without an ``engine``.

    Example (direct mode)::

        net = ZmailNetwork(n_isps=2, users_per_isp=10)
        receipt = net.send(Address(0, 1), Address(1, 2))
        assert receipt.status is SendStatus.SENT_PAID
    """

    def __init__(
        self,
        *,
        n_isps: int,
        users_per_isp: int,
        compliant: Iterable[bool] | None = None,
        config: ZmailConfig | None = None,
        seed: int = 0,
        engine: Engine | None = None,
        link: LinkSpec | None = None,
        transport: Callable[[Letter], None] | None = None,
        overload: OverloadConfig | None = None,
        overload_gate: Callable[[int], bool] | None = None,
        local_isps: Iterable[int] | None = None,
        tracer: TraceRecorder | None = None,
    ) -> None:
        if n_isps <= 0 or users_per_isp <= 0:
            raise ValueError("need at least one ISP and one user per ISP")
        self.config = config or ZmailConfig()
        self.n_isps = n_isps
        self.users_per_isp = users_per_isp
        self.seed = seed
        flags = list(compliant) if compliant is not None else [True] * n_isps
        if len(flags) != n_isps:
            raise ValueError("compliant flags length must equal n_isps")
        local = set(range(n_isps)) if local_isps is None else set(local_isps)
        if not local <= set(range(n_isps)):
            raise ValueError(f"local_isps out of range: {sorted(local)}")
        if local != set(range(n_isps)) and transport is None:
            raise ValueError("a sharded slice (local_isps) needs a transport")
        if overload is not None and engine is None:
            raise ValueError("overload admission needs an engine for its retries")
        self.local_isps = frozenset(local)

        self.bank = Bank()
        self.isps: dict[int, CompliantISP | NonCompliantISP | RemoteISP] = {}
        self._nonce_sources: dict[int, NonceSource] = {}
        for isp_id, is_compliant in enumerate(flags):
            if isp_id not in local:
                self.isps[isp_id] = RemoteISP(isp_id, compliant=is_compliant)
            elif is_compliant:
                self.isps[isp_id] = CompliantISP(
                    isp_id, users_per_isp, self.config
                )
                self.bank.register_isp(
                    isp_id, initial_account=self.config.initial_bank_account
                )
                self._nonce_sources[isp_id] = self._nonce_source(isp_id)
            else:
                self.isps[isp_id] = NonCompliantISP(isp_id, users_per_isp)
        self._push_directory()

        self.metrics = MetricsRegistry()
        # Hot-path counters, resolved once: the per-send/per-delivery code
        # calls a cached bound increment instead of formatting a metric
        # name and re-looking it up for every message. They are keyed by
        # the member's ``_value_`` string: an Enum member key would cost a
        # Python-level ``Enum.__hash__`` per lookup, and ``.value`` a
        # property call.
        metrics = self.metrics
        self._inc_send_status = {
            status._value_: metrics.counter(f"send.{status._value_}").increment
            for status in SendStatus
        }
        self._inc_send_kind = {
            kind._value_: metrics.counter(f"send.kind.{kind._value_}").increment
            for kind in TrafficKind
        }
        self._inc_deliver_kind = {
            kind._value_: metrics.counter(f"deliver.kind.{kind._value_}").increment
            for kind in TrafficKind
        }
        self._inc_delivered = metrics.counter("deliver.delivered").increment
        self._inc_dropped = metrics.counter("deliver.dropped").increment
        self._inc_topup_count = metrics.counter("topup.count").increment
        self._inc_topup_epennies = metrics.counter("topup.epennies").increment
        self.paid_letters_in_flight = 0
        self._last_day_seen = 0
        self._external_deposit = 0
        # Durable-store dirty hook: called as touch(isp_id, user_id) at
        # every funnel that can mutate per-user state (send, deliver,
        # fund, midnight reset). None (the default) keeps the hot path
        # branch-predictable.
        self._touch: Callable[[int, int], None] | None = None
        self._bank_reply_handler = None
        self.last_report: ReconciliationReport | None = None
        self._isp_names = [f"isp{isp_id}" for isp_id in range(n_isps)]

        self.overload = overload
        self._admission: dict[int, AdmissionController] | None = None
        self._retry_armed: dict[int, float] = {}
        self._direct_now = 0.0
        self._overload_gate = overload_gate
        if overload is not None:
            self._admission = {
                isp_id: AdmissionController(f"isp{isp_id}", overload)
                for isp_id in range(n_isps)
            }
            self._inc_shed = metrics.counter("overload.shed").increment
            self._inc_deferred = metrics.counter("overload.deferred").increment
            self._inc_bounced = metrics.counter("overload.bounced").increment
            self._inc_retried = metrics.counter("overload.retries").increment

        self.engine = engine
        self.transport = transport
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None and tracer is not NULL_TRACER and tracer.clock is None:
            # The outermost clock owner wins: a chaos harness or CLI that
            # installed its own clock first keeps it.
            if engine is not None:
                engine_clock = engine.clock
                tracer.clock = lambda: engine_clock.now
            else:
                tracer.clock = lambda: self._direct_now
        self.net: Network | None = None
        self._active_coordinator: object | None = None
        if engine is not None and transport is None:
            streams = SeededStreams(seed)
            self.net = Network(
                engine,
                streams,
                default_link=link or LinkSpec(),
                tracer=self.tracer,
            )
            for isp_id in range(n_isps):
                self.net.register(f"isp{isp_id}", _IspEndpoint(self, isp_id))
            self.net.register("bank", _BankEndpoint(self))

    # -- directory ---------------------------------------------------------------

    def _push_directory(self) -> None:
        directory = self.bank.compliance_directory()
        # Non-compliant ISPs are absent from the bank; fill them in as
        # False. Remote ISPs are absent too (their home shard's bank slice
        # owns the account) — advertise their configured flag so local
        # senders pay compliant remote destinations.
        for isp_id, isp in self.isps.items():
            if isinstance(isp, RemoteISP):
                directory.setdefault(isp_id, isp.compliant)
            else:
                directory.setdefault(isp_id, False)
        for isp in self.isps.values():
            if isinstance(isp, CompliantISP):
                isp.update_compliance(directory)

    def compliant_isps(self) -> dict[int, CompliantISP]:
        """The compliant subset, keyed by ISP id."""
        return {
            isp_id: isp
            for isp_id, isp in self.isps.items()
            if isinstance(isp, CompliantISP)
        }

    def make_compliant(self, isp_id: int) -> None:
        """Convert a non-compliant ISP to compliant (incremental deployment).

        User mailboxes start fresh; the bank opens an account and the
        directory update is broadcast, exactly the §5 adoption step.
        """
        isp = self.isps[isp_id]
        if isinstance(isp, CompliantISP):
            return
        if isinstance(isp, RemoteISP):
            raise SimulationError(
                f"isp{isp_id} is remote; its home shard owns compliance"
            )
        self.isps[isp_id] = CompliantISP(isp_id, self.users_per_isp, self.config)
        self.bank.register_isp(
            isp_id, initial_account=self.config.initial_bank_account
        )
        self._nonce_sources[isp_id] = self._nonce_source(isp_id)
        self._push_directory()

    def _nonce_source(self, isp_id: int) -> NonceSource:
        """The bank-trade nonce source of a compliant ISP: one stream per
        ISP from the network seed, whenever the ISP became compliant."""
        return NonceSource(self.seed ^ 0x5EED, owner=f"isp{isp_id}")

    @property
    def nonce_counters(self) -> dict[int, int]:
        """Each compliant ISP's bank-trade nonce counter; a restart that
        rewound one would replay a nonce the bank has already seen."""
        return {i: source._counter for i, source in self._nonce_sources.items()}

    @nonce_counters.setter
    def nonce_counters(self, counters: dict[int, int]) -> None:
        for isp_id, counter in counters.items():
            self._nonce_sources[isp_id]._counter = counter

    def set_touch_hook(
        self, touch: Callable[[int, int], None] | None
    ) -> None:
        """Install (or clear) the durable-store dirty-tracking hook.

        ``touch(isp_id, user_id)`` is invoked for every user whose state
        may have changed; the set it accumulates is a superset of the
        actually-mutated users (blocked sends still touch the sender),
        which is safe — re-persisting a clean record is a no-op.
        Auto-topups need no extra hook call (they happen inside a send
        that already touches the sender); midnight touches every user
        whose daily counter it resets (:meth:`isp_midnight`).
        """
        self._touch = touch

    # -- funding helpers --------------------------------------------------------------

    def fund_user(
        self, address: Address, *, pennies: int = 0, epennies: int = 0
    ) -> None:
        """Top up a user's purses directly (workload setup, e.g. spammers).

        Both injections are out-of-band endowments (real deposit, e-penny
        grant) tracked in :meth:`expected_total_value` so conservation
        audits still balance.
        """
        isp = self.isps[address.isp]
        if not isinstance(isp, CompliantISP):
            return
        user = isp.ledger.user(address.user)
        if pennies:
            user.credit_pennies(pennies)
            self._external_deposit += pennies
        if epennies:
            user.credit_epennies(epennies)
            self._external_deposit += epennies
        if self._touch is not None:
            self._touch(address.isp, address.user)

    # -- sending ------------------------------------------------------------------------

    def send(
        self,
        sender: Address,
        recipient: Address,
        kind: TrafficKind = TrafficKind.NORMAL,
        *,
        content: tuple[str, ...] | None = None,
    ) -> SendReceipt:
        """Route one send attempt through the sender's ISP.

        In direct mode a produced letter is delivered immediately; in
        engine mode it is handed to the latency network. ``content``
        optionally attaches the message's tokens for content-based
        receiving policies (FILTER).

        With an :class:`OverloadConfig` active, the sender ISP's
        admission controller runs first: a saturated ISP answers
        ``SHED`` (refused outright, audited) or ``DEFERRED`` (queued for
        backoff retry) without touching any ledger.
        """
        n_isps = self.n_isps
        users = self.users_per_isp
        if not (
            0 <= sender.isp < n_isps and 0 <= sender.user < users
            and 0 <= recipient.isp < n_isps and 0 <= recipient.user < users
        ):
            raise SimulationError(f"address out of range: {sender} -> {recipient}")
        if self._admission is not None:
            receipt = self._admit_send(sender, recipient, kind, content)
            if receipt is not None:
                status = receipt.status._value_
                kind_name = kind._value_
                self._inc_send_status[status]()
                self._inc_send_kind[kind_name]()
                tracer = self.tracer
                if tracer.enabled:
                    tracer.record(
                        send_event, sender.isp, sender.user, recipient.isp,
                        recipient.user, kind_name, status,
                    )
                return receipt
        return self._send_admitted(sender, recipient, kind, content)

    def _send_admitted(
        self,
        sender: Address,
        recipient: Address,
        kind: TrafficKind,
        content: tuple[str, ...] | None,
    ) -> SendReceipt:
        """The pre-overload send path: admission already granted (or off)."""
        isp = self.isps[sender.isp]
        if self._touch is not None:
            # Sender always (counters/purse even on blocked sends); the
            # recipient too, covering the local-delivery short circuit
            # where no Letter ever reaches _deliver_letter.
            self._touch(sender.isp, sender.user)
            self._touch(recipient.isp, recipient.user)
        receipt = isp.submit(sender.user, recipient, kind, content)
        if (
            receipt.status is SendStatus.BLOCKED_BALANCE
            and isinstance(isp, CompliantISP)
            and self.config.auto_topup_amount > 0
        ):
            receipt = self._retry_with_topup(isp, sender, recipient, kind, content)
        status = receipt.status._value_
        kind_name = kind._value_
        self._inc_send_status[status]()
        self._inc_send_kind[kind_name]()
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                send_event, sender.isp, sender.user, recipient.isp,
                recipient.user, kind_name, status,
            )
        if receipt.letter is not None:
            self._route_letter(receipt.letter)
        return receipt

    def _retry_with_topup(
        self,
        isp: CompliantISP,
        sender: Address,
        recipient: Address,
        kind: TrafficKind,
        content: tuple[str, ...] | None = None,
    ) -> SendReceipt:
        """Auto top-up: buy e-pennies from the pool and retry once."""
        user = isp.ledger.user(sender.user)
        amount = min(
            self.config.auto_topup_amount, user.account, isp.ledger.pool
        )
        if amount <= 0:
            return RECEIPT_BLOCKED_BALANCE
        try:
            isp.ledger.user_buys_epennies(sender.user, amount)
        except InsufficientBalance:
            return RECEIPT_BLOCKED_BALANCE
        self._inc_topup_count()
        self._inc_topup_epennies(amount)
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(topup_event, sender.isp, sender.user, amount)
        return isp.submit(sender.user, recipient, kind, content)

    # -- overload admission -------------------------------------------------------------

    def _is_paid_route(self, sender: Address, recipient: Address) -> bool:
        return isinstance(self.isps[sender.isp], CompliantISP) and isinstance(
            self.isps[recipient.isp], CompliantISP
        )

    def _admit_send(
        self,
        sender: Address,
        recipient: Address,
        kind: TrafficKind,
        content: tuple[str, ...] | None,
    ) -> SendReceipt | None:
        """Run admission control; ``None`` means accepted (proceed now)."""
        assert self._admission is not None
        controller = self._admission[sender.isp]
        now = self.engine.now
        shed_class = shed_class_for(
            kind, paid=self._is_paid_route(sender, recipient)
        )
        bounced_before = controller.bounced
        decision = controller.admit(now, shed_class)
        tracer = self.tracer
        if controller.bounced > bounced_before:  # a queued victim was evicted
            evicted = controller.bounced - bounced_before
            self._inc_bounced(evicted)
            if tracer.enabled:
                tracer.emit("overload.bounce", isp=sender.isp, n=evicted)
        if decision == "accept":
            return None
        if decision == "shed":
            self._inc_shed()
            if tracer.enabled:
                tracer.emit("overload.shed", isp=sender.isp)
            return RECEIPT_SHED
        controller.defer(now, (sender, recipient, kind, content), shed_class)
        self._inc_deferred()
        if tracer.enabled:
            tracer.emit("overload.defer", isp=sender.isp)
        self._arm_retry(sender.isp, controller)
        return RECEIPT_DEFERRED

    def _arm_retry(self, isp_id: int, controller: AdmissionController) -> None:
        """Make sure an engine timer covers the earliest pending retry.

        Superseded timers fire spuriously and pump an empty queue, which
        is harmless.
        """
        due = controller.next_due()
        if due is None:
            return
        armed = self._retry_armed.get(isp_id)
        if armed is not None and armed <= due:
            return
        self._retry_armed[isp_id] = due
        self._retry_after(max(0.0, due - self.engine.now), isp_id)

    def _retry_after(self, delay: float, isp_id: int) -> None:
        self.engine.schedule_after(
            delay, lambda: self._retry_fire(isp_id), label="overload-retry"
        )

    def _retry_fire(self, isp_id: int) -> None:
        self._retry_armed.pop(isp_id, None)
        self._pump_overload(isp_id)

    def _pump_overload(self, isp_id: int) -> None:
        """Process due deferred sends for one ISP: deliver or bounce."""
        assert self._admission is not None
        controller = self._admission[isp_id]
        now = self.engine.now
        if self._overload_gate is not None and not self._overload_gate(isp_id):
            # Node not ready (crashed); hold the queue and try again after
            # one base-backoff interval.
            if controller.pending:
                delay = self.overload.retry_base  # type: ignore[union-attr]
                self._retry_armed[isp_id] = now + delay
                self._retry_after(delay, isp_id)
            return
        tracer = self.tracer
        for outcome, item in controller.pump(now):
            if outcome == "accept":
                sender, recipient, kind, content = item.payload
                self._inc_retried()
                if tracer.enabled:
                    tracer.emit("overload.retry", isp=isp_id)
                self._send_admitted(sender, recipient, kind, content)
            else:
                self._inc_bounced()
                if tracer.enabled:
                    tracer.emit("overload.bounce", isp=isp_id, n=1)
        self._arm_retry(isp_id, controller)

    def overload_pending(self) -> int:
        """Messages sitting in deferred queues across all ISPs."""
        if self._admission is None:
            return 0
        return sum(c.pending for c in self._admission.values())

    def overload_controllers(self) -> dict[int, AdmissionController]:
        """The per-ISP admission controllers (empty dict when disabled)."""
        return dict(self._admission) if self._admission is not None else {}

    def overload_stats(self) -> dict[str, int]:
        """Aggregate admission counters across all ISPs (zeros when off)."""
        keys = (
            "attempts", "accepted", "shed", "bounced", "evicted", "retries"
        )
        stats = {f"overload_{key}": 0 for key in keys}
        stats["overload_pending"] = 0
        stats["overload_peak_pending"] = 0
        if self._admission is None:
            return stats
        for controller in self._admission.values():
            for key in keys:
                stats[f"overload_{key}"] += getattr(controller, key)
            stats["overload_pending"] += controller.pending
            stats["overload_peak_pending"] = max(
                stats["overload_peak_pending"], controller.peak_pending
            )
        return stats

    def _route_letter(self, letter: Letter) -> None:
        if letter.paid:
            self.paid_letters_in_flight += 1
        if self.transport is not None:
            self.transport(letter)
        elif self.net is None:
            self._deliver_letter(letter)
        else:
            names = self._isp_names
            self.net.send(
                names[letter.sender.isp],
                names[letter.recipient.isp],
                letter,
                size=1024,
            )

    def _deliver_letter(self, letter: Letter) -> None:
        if letter.paid:
            self.paid_letters_in_flight -= 1
        if self._touch is not None:
            self._touch(letter.recipient.isp, letter.recipient.user)
        delivered = self.isps[letter.recipient.isp].deliver(letter)
        kind_name = letter.kind._value_
        if delivered:
            self._inc_delivered()
            self._inc_deliver_kind[kind_name]()
        else:
            self._inc_dropped()
        tracer = self.tracer
        if tracer.enabled:
            sender, recipient = letter.sender, letter.recipient
            tracer.record(
                deliver_event, sender.isp, sender.user, recipient.isp,
                recipient.user, kind_name, delivered,
            )

    def deliver_transported(self, letter: Letter) -> None:
        """Complete delivery of a letter carried by a custom transport.

        The transport handed out by :attr:`transport` must call this
        exactly once per letter it accepted — it settles the in-flight
        accounting and hands the letter to the destination ISP.
        """
        self._deliver_letter(letter)

    # -- engine-mode message pump -----------------------------------------------------------

    def _on_isp_message(self, isp_id: int, payload: object) -> None:
        if isinstance(payload, Letter):
            self._deliver_letter(payload)
            return
        coordinator = self._active_coordinator
        if isinstance(payload, SnapshotRequest) and coordinator is not None:
            coordinator.on_request(isp_id, payload)  # type: ignore[attr-defined]
            return
        if isinstance(payload, SnapshotMarker) and coordinator is not None:
            coordinator.on_marker(isp_id, payload)  # type: ignore[attr-defined]
            return
        raise SimulationError(f"isp{isp_id}: unexpected payload {payload!r}")

    def _on_bank_message(self, payload: object) -> None:
        if isinstance(payload, SnapshotReply) and self._bank_reply_handler:
            self._bank_reply_handler(payload)
            return
        raise SimulationError(f"bank: unexpected payload {payload!r}")

    def _send_control(self, src_isp: int | None, dst_isp: int, payload: object) -> None:
        assert self.net is not None
        src = "bank" if src_isp is None else f"isp{src_isp}"
        self.net.send(src, f"isp{dst_isp}", payload, size=64)

    def _send_reply_to_bank(self, reply: SnapshotReply) -> None:
        assert self.net is not None
        self.net.send(f"isp{reply.isp_id}", "bank", reply, size=256)

    # -- snapshots / reconciliation -----------------------------------------------------------

    def reconcile(self, method: str = "direct") -> ReconciliationReport | None:
        """Run one §4.4 reconciliation round.

        Args:
            method: ``"direct"`` (synchronous, direct mode only),
                ``"timeout"`` (the paper's quiesce window) or ``"marker"``
                (consistent-cut markers); the latter two require engine
                mode and return ``None`` immediately — the report appears
                on :attr:`last_report` once the round completes in virtual
                time.
        """
        compliant = self.compliant_isps()
        if method == "direct":
            if self.net is not None and self.paid_letters_in_flight:
                raise SimulationError(
                    "direct reconciliation with letters in flight; "
                    "run the engine to quiescence first or use "
                    "method='timeout'/'marker'"
                )
            coordinator = DirectSnapshotCoordinator(self.bank, compliant)
            report = coordinator.run()
            self.last_report = report
            self._trace_reconcile("direct", report)
            return report
        if self.net is None or self.engine is None:
            raise SimulationError(f"method {method!r} requires engine mode")

        def route_receipts(receipts: list[SendReceipt]) -> None:
            for receipt in receipts:
                if receipt.letter is not None:
                    self._route_letter(receipt.letter)

        def complete(report: ReconciliationReport) -> None:
            self.last_report = report
            self._active_coordinator = None
            self._bank_reply_handler = None
            self._trace_reconcile(method, report)

        if method == "timeout":
            coordinator = TimeoutSnapshotCoordinator(
                self.bank,
                compliant,
                quiesce_seconds=self.config.snapshot_quiesce_seconds,
                send_control=self._send_control,
                schedule_after=lambda d, cb: self.engine.schedule_after(d, cb),
                on_complete=complete,
                route_receipts=route_receipts,
            )
        elif method == "marker":
            coordinator = MarkerSnapshotCoordinator(
                self.bank,
                compliant,
                send_control=self._send_control,
                on_complete=complete,
                route_receipts=route_receipts,
            )
        else:
            raise ValueError(f"unknown snapshot method {method!r}")
        # ISP-side replies traverse the network; the bank endpoint funnels
        # delivered replies back into the coordinator's collection logic.
        self._bank_reply_handler = coordinator.on_reply
        coordinator.on_reply = self._send_reply_to_bank  # type: ignore[method-assign]
        self._active_coordinator = coordinator
        coordinator.start()
        return None

    # -- time ---------------------------------------------------------------------------------

    def _trace_reconcile(self, method: str, report: ReconciliationReport) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "reconcile",
                method=method,
                round=report.round_seq,
                consistent=report.consistent,
                flagged=sorted(report.flagged_isps()),
            )

    def advance_day_to(self, day: int) -> None:
        """Apply midnight resets and pool rebalancing up to ``day``."""
        while self._last_day_seen < day:
            self._last_day_seen += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit("midnight", day=self._last_day_seen)
            for isp in self.compliant_isps().values():
                self.isp_midnight(isp)
            self.rebalance_pools()

    def isp_midnight(self, isp: CompliantISP) -> None:
        """One ISP's midnight reset; every user it resets is touched."""
        reset = isp.midnight()
        if self._touch is not None:
            for user_id in reset:
                self._touch(isp.isp_id, user_id)

    def note_time(self, t: float) -> None:
        """Direct-mode driver: midnight work at day boundaries up to ``t``.

        Also advances the direct-mode virtual clock the tracer reads, so
        traced events carry the driver's time.
        """
        if t > self._direct_now:
            self._direct_now = t
        day = int(t // DAY)
        if day > self._last_day_seen:
            self.advance_day_to(day)

    def rebalance_pools(self, isp_ids: Iterable[int] | None = None) -> None:
        """§4.3: compliant ISPs buy/sell pool e-pennies at the bank.

        Args:
            isp_ids: Restrict the round to this subset (the chaos harness
                skips crashed ISPs — a down node cannot trade with the
                bank). Default: every compliant ISP.
        """
        compliant = self.compliant_isps()
        if isp_ids is not None:
            compliant = {
                isp_id: compliant[isp_id]
                for isp_id in isp_ids
                if isp_id in compliant
            }
        tracer = self.tracer
        for isp_id, isp in sorted(compliant.items()):
            # An ISP the bank has flagged non-compliant cannot trade:
            # buy_epennies/sell_epennies would raise NotCompliant, and the
            # partial-rebalance path (chaos restarts rebalance a subset)
            # must not let one flagged member abort the whole round.
            if not self.bank.is_compliant(isp_id):
                continue
            deficit = isp.pool_deficit()
            if deficit > 0:
                nonce = self._nonce_sources[isp_id].next()
                result = self.bank.buy_epennies(isp_id, value=deficit, nonce=nonce)
                if result.accepted:
                    isp.ledger.pool_credit(deficit)
                    self.metrics.counter("bank.buys").increment()
                    if tracer.enabled:
                        tracer.record(trade_event, isp_id, "buy", deficit)
                continue
            surplus = isp.pool_surplus()
            if surplus > 0:
                nonce = self._nonce_sources[isp_id].next()
                # Bank first: debiting the pool before a sell_epennies
                # that raised (NotCompliant, replay) destroyed the surplus
                # outright. With the bank credited, pool_debit cannot fail
                # (the surplus is bounded by the pool).
                self.bank.sell_epennies(isp_id, value=surplus, nonce=nonce)
                isp.ledger.pool_debit(surplus)
                self.metrics.counter("bank.sells").increment()
                if tracer.enabled:
                    tracer.record(trade_event, isp_id, "sell", surplus)

    # -- workload driving --------------------------------------------------------------------

    def run_workload(self, requests: Iterable[SendRequest]) -> None:
        """Drive a time-ordered request stream through a direct-mode
        deployment: each request executes immediately, with midnight work
        applied at day boundaries.

        Raises:
            SimulationError: on an engine-mode network, whose traffic the
                caller attaches to the engine (:meth:`Engine.add_stream`).
        """
        if self.engine is not None:
            raise SimulationError(
                "run_workload drives a direct-mode network; attach an "
                "engine network's traffic with Engine.add_stream"
            )
        note_time = self.note_time
        send = self.send
        for request in requests:
            note_time(request.time)
            send(request.sender, request.recipient, request.kind)

    # -- audits ---------------------------------------------------------------------------------

    def total_value(self) -> int:
        """All value in the system, for conservation checks.

        Counts user purses, ISP pools, bank accounts and paid letters in
        flight. Constant across any run apart from explicit
        :meth:`fund_user` injections (tracked separately).
        """
        total = 0
        for isp in self.compliant_isps().values():
            totals = isp.ledger.totals()
            total += totals.total_value
        total += self.bank.total_deposits()
        total += self.paid_letters_in_flight
        return total

    def expected_total_value(self) -> int:
        """Initial endowment plus external injections via fund_user."""
        n_compliant = len(self.compliant_isps())
        per_isp = (
            self.users_per_isp
            * (self.config.default_user_account + self.config.default_user_balance)
            + self.config.initial_pool
        )
        return (
            n_compliant * (per_isp + self.config.initial_bank_account)
            + self._external_deposit
        )

