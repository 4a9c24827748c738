"""A compliant ISP's full SMTP gateway.

Ties the substrates together into the deployable unit the paper
envisions: one :class:`ZmailGateway` per compliant ISP that

* **outbound** — stamps messages with the ISP's ``X-Zmail-*`` headers and
  submits them over any :class:`~repro.smtp.transport.MailTransport`
  (in-memory for tests, real SMTP via :mod:`repro.smtp.client`);
* **inbound** — authenticates the stamp against the transport-level
  origin (a stamp naming a different ISP than the envelope's domain is
  forged and the message is rejected), drives the Zmail accounting on a
  shared :class:`~repro.core.protocol.ZmailNetwork`, and files the
  message into the recipient's :class:`Mailbox`;
* **acknowledgments** — mailing-list messages (``X-Zmail-List-Token``)
  are acknowledged automatically per §5: the ack email returns the
  e-penny to the distributor *without* reaching a human inbox.

With an :class:`~repro.core.overload.OverloadConfig` the gateway also
applies admission control to outbound submissions: saturation defers
(bounded queue, exponential-backoff retries via :meth:`ZmailGateway.pump`,
timed by the gateway's ``clock``) or sheds, and a deferred message that
exhausts its retries is terminally bounced with a DSN-style notice filed
into the sender's own mailbox.
All gateway counters are exported through the shared network's
:class:`~repro.sim.metrics.MetricsRegistry` under ``gateway.*`` names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.overload import AdmissionController, DeferredItem, OverloadConfig, shed_class_for
from ..core.protocol import ZmailNetwork
from ..core.transfer import SendStatus
from ..errors import SimulationError, SMTPPermanentError
from ..records import Codec, Field, Nullable, Record
from ..sim.workload import ADDRESS, Address, TrafficKind
from .address import from_sim_address, to_sim_address
from .message import MailMessage
from .transport import Envelope, MailTransport
from .zmail_headers import (
    CLASS_ACK,
    CLASS_NORMAL,
    ZmailStamp,
    is_ack,
    make_ack_message,
    read_stamp,
    stamp_message,
)

__all__ = ["Mailbox", "DeliveryRecord", "ZmailGateway", "PENDING"]

#: A deferred submission ``(sender_user, recipient, message, list_token)``
#: in the gateway's pending journal.
PENDING = Record(
    Field("sender_user", int, 0),
    Field("recipient", ADDRESS, 0),
    Field("message", Codec(str, MailMessage.serialize, MailMessage.parse)),
    Field("list_token", Nullable(str)),
    cls=tuple,
)


@dataclass
class DeliveryRecord:
    """One message filed into a mailbox."""

    envelope: Envelope
    paid: bool
    folder: str  # "inbox" | "junk"


@dataclass
class Mailbox:
    """A user's stored mail, split by folder."""

    inbox: list[DeliveryRecord] = field(default_factory=list)
    junk: list[DeliveryRecord] = field(default_factory=list)

    def file(self, record: DeliveryRecord) -> None:
        """Store a record in the folder it names."""
        if record.folder == "junk":
            self.junk.append(record)
        else:
            self.inbox.append(record)

    def __len__(self) -> int:
        return len(self.inbox) + len(self.junk)


class ZmailGateway:
    """One compliant ISP's SMTP face over a shared deployment.

    Args:
        network: The Zmail deployment this gateway accounts against.
        isp_id: Which compliant ISP this gateway fronts.
        transport: Where outbound mail (including automatic acks) goes.
        overload: Enables outbound admission control (token bucket +
            bounded deferred queue + priority shedding). ``None`` keeps
            the pre-overload behaviour exactly. Needs ``clock``.
        clock: The admission layer's only time source: token refills
            and retry backoff read it, and :meth:`pump` retries what is
            due at its current reading.

    Raises:
        ValueError: for an ISP that is not compliant, or ``overload``
            without a ``clock``.
    """

    def __init__(
        self,
        network: ZmailNetwork,
        isp_id: int,
        transport: MailTransport,
        *,
        overload: OverloadConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if isp_id not in network.compliant_isps():
            raise ValueError(f"isp {isp_id} is not compliant in this network")
        if overload is not None and clock is None:
            raise ValueError("overload admission needs a clock for its retries")
        self.network = network
        self.isp_id = isp_id
        self.transport = transport
        self.mailboxes: dict[int, Mailbox] = {}
        self.forged_rejected = 0
        self.acks_sent = 0
        self.acks_absorbed = 0
        self.rejected_sends = 0
        self.shed_sends = 0
        self.deferred_sends = 0
        self.bounced_sends = 0
        self.overload = overload
        self._clock = clock
        # Trace through the shared network's recorder so gateway events
        # interleave with the accounting events they cause.
        self.tracer = network.tracer
        self._admission: AdmissionController | None = None
        if overload is not None:
            self._admission = AdmissionController(f"gateway{isp_id}", overload)
            self._admission.on_bounce = self._bounce_deferred
        # Satellite observability: every gateway decision is visible
        # through the shared registry, summed across the network's
        # gateways under one namespace.
        metrics = network.metrics
        self._m = {
            name: metrics.counter(f"gateway.{name}").increment
            for name in (
                "forged_rejected", "acks_sent", "acks_absorbed",
                "rejected_sends", "shed", "deferred", "bounced",
                "submitted", "delivered_inbound",
            )
        }

    @property
    def domain(self) -> str:
        """The gateway's mail domain under the simulator convention."""
        return f"isp{self.isp_id}.example"

    def mailbox(self, user_id: int) -> Mailbox:
        """The (created-on-demand) mailbox of a local user."""
        box = self.mailboxes.get(user_id)
        if box is None:
            box = Mailbox()
            self.mailboxes[user_id] = box
        return box

    # -- outbound ------------------------------------------------------------------

    def submit_outbound(
        self,
        sender_user: int,
        recipient: Address,
        message: MailMessage,
        *,
        list_token: str | None = None,
    ) -> SendStatus:
        """A local user sends a message: admit, account, stamp, transport.

        When overload protection is on, admission control runs *before*
        any accounting — a shed or deferred message never touches the
        ledger, so e-penny conservation is independent of load shedding.
        ``SHED`` is a terminal refusal (SMTP 451 at the server face);
        ``DEFERRED`` means the message is queued and will be retried by
        :meth:`pump`. Raises nothing for ordinary refusals — the status
        tells the caller what happened.
        """
        kind = (
            TrafficKind.MAILING_LIST if list_token is not None
            else TrafficKind.NORMAL
        )
        if self._admission is not None:
            now = self._clock()
            shed_class = shed_class_for(
                kind, paid=self.network.bank.is_compliant(recipient.isp)
            )
            verdict = self._admission.admit(now, shed_class)
            tracer = self.tracer
            if verdict == "shed":
                self.shed_sends += 1
                self._m["shed"]()
                if tracer.enabled:
                    tracer.emit(
                        "gateway.submit",
                        sender=str(Address(self.isp_id, sender_user)),
                        status=SendStatus.SHED.value,
                    )
                return SendStatus.SHED
            if verdict == "defer":
                self.deferred_sends += 1
                self._m["deferred"]()
                self._admission.defer(
                    now, (sender_user, recipient, message, list_token),
                    shed_class,
                )
                if tracer.enabled:
                    tracer.emit(
                        "gateway.submit",
                        sender=str(Address(self.isp_id, sender_user)),
                        status=SendStatus.DEFERRED.value,
                    )
                return SendStatus.DEFERRED
        return self._submit_admitted(
            sender_user, recipient, message, list_token=list_token, kind=kind
        )

    def _submit_admitted(
        self,
        sender_user: int,
        recipient: Address,
        message: MailMessage,
        *,
        list_token: str | None,
        kind: TrafficKind,
    ) -> SendStatus:
        """The pre-overload submission path: account, stamp, transport."""
        receipt = self.network.send(
            Address(self.isp_id, sender_user), recipient, kind
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "gateway.submit",
                sender=str(Address(self.isp_id, sender_user)),
                status=receipt.status.value,
            )
        if receipt.status.blocked or receipt.status is SendStatus.BUFFERED:
            self.rejected_sends += 1
            self._m["rejected_sends"]()
            return receipt.status
        stamped = stamp_message(
            message,
            ZmailStamp(
                sender_isp=f"isp{self.isp_id}",
                message_class=CLASS_NORMAL,
                list_token=list_token,
            ),
        )
        envelope = Envelope(
            mail_from=str(from_sim_address(Address(self.isp_id, sender_user))),
            rcpt_to=str(from_sim_address(recipient)),
            message=stamped,
        )
        if receipt.status is not SendStatus.DELIVERED_LOCAL:
            self.transport.submit(envelope)
        else:
            # Local mail never leaves the ISP; file it directly.
            self._file(recipient.user, envelope, paid=True, folder="inbox")
        self._m["submitted"]()
        return receipt.status

    # -- overload: deferred retries and terminal bounces ----------------------------

    def pump(self) -> int:
        """Retry deferred submissions due by the clock; returns how many.

        Accepted retries run the normal submission path; exhausted ones
        are terminally bounced (the DSN notice is filed by the bounce
        hook). A no-op without overload protection.
        """
        if self._admission is None:
            return 0
        processed = 0
        for outcome, item in self._admission.pump(self._clock()):
            processed += 1
            if outcome == "accept":
                sender_user, recipient, message, list_token = item.payload
                kind = (
                    TrafficKind.MAILING_LIST if list_token is not None
                    else TrafficKind.NORMAL
                )
                self._submit_admitted(
                    sender_user, recipient, message,
                    list_token=list_token, kind=kind,
                )
            # "bounce" outcomes were handled by the on_bounce hook.
        return processed

    def _bounce_deferred(self, now: float, item: DeferredItem, reason: str) -> None:
        """Terminal bounce: file a DSN-style notice with the sender."""
        self.bounced_sends += 1
        self._m["bounced"]()
        sender_user, recipient, original, _token = item.payload
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "gateway.bounce", recipient=str(from_sim_address(recipient))
            )
        sender_address = str(from_sim_address(Address(self.isp_id, sender_user)))
        notice = MailMessage.compose(
            sender=f"mailer-daemon@{self.domain}",
            recipient=sender_address,
            subject="Undeliverable: message bounced",
            body=(
                f"Your message could not be delivered: {reason}.\n"
                f"Original subject: {original.subject or '(none)'}\n"
            ),
            extra_headers={
                "X-Failed-Recipient": str(from_sim_address(recipient)),
            },
        )
        envelope = Envelope(
            mail_from=f"mailer-daemon@{self.domain}",
            rcpt_to=sender_address,
            message=notice,
        )
        self._file(sender_user, envelope, paid=True, folder="inbox")

    @property
    def pending_sends(self) -> int:
        """Deferred submissions currently awaiting retry."""
        return self._admission.pending if self._admission is not None else 0

    def pending_state(self) -> dict[str, object] | None:
        """The deferred outbound queue as a durable journal (or ``None``).

        Deferred submissions are mail the gateway *accepted* (the client
        got a 451-retry answer and walked away); losing them across a
        restart silently drops in-flight retries. The durable store
        persists this journal and :meth:`load_pending_state` rehydrates
        it on restart.
        """
        if self._admission is None:
            return None
        return self._admission.state_dict(PENDING)

    def load_pending_state(self, state: dict[str, object] | None) -> None:
        """Rehydrate the deferred outbound queue from :meth:`pending_state`.

        Raises:
            SimulationError: if the journal is malformed or the gateway
                has no admission controller to receive it.
        """
        if state is None:
            return
        if self._admission is None:
            raise SimulationError(
                f"gateway{self.isp_id}: pending journal present but "
                "overload admission is disabled"
            )
        self._admission.load_state(state, PENDING)

    # -- inbound --------------------------------------------------------------------

    def handle_inbound(self, envelope: Envelope) -> bool:
        """Transport delivery handler; returns ``True`` if accepted.

        The accounting (`network.send`) was already performed by the
        *sending* gateway — this side only verifies, files, and (for list
        messages) generates the §5 acknowledgment. Inbound acks are
        absorbed without reaching any inbox.

        Raises:
            SMTPPermanentError: 550 for recipients we do not host.
        """
        recipient = to_sim_address(envelope.rcpt_to)
        if recipient.isp != self.isp_id:
            raise SMTPPermanentError(550, f"{envelope.rcpt_to} not local")
        sender = to_sim_address(envelope.mail_from)
        stamp = read_stamp(envelope.message)

        tracer = self.tracer
        # A stamp asserting a different origin than the envelope is forged.
        if stamp is not None and stamp.sender_isp != f"isp{sender.isp}":
            self.forged_rejected += 1
            self._m["forged_rejected"]()
            if tracer.enabled:
                tracer.emit("gateway.inbound", outcome="forged")
            return False

        if is_ack(envelope.message):
            # §5: acks are processed automatically, never delivered.
            self.acks_absorbed += 1
            self._m["acks_absorbed"]()
            if tracer.enabled:
                tracer.emit("gateway.inbound", outcome="ack")
            return True

        paid = self.network.bank.is_compliant(sender.isp)
        folder = "inbox" if paid else "junk"
        self._file(recipient.user, envelope, paid=paid, folder=folder)
        self._m["delivered_inbound"]()
        if tracer.enabled:
            tracer.emit("gateway.inbound", outcome=folder)

        if stamp is not None and stamp.list_token is not None:
            self._auto_ack(recipient, envelope)
        return True

    def _auto_ack(self, recipient: Address, envelope: Envelope) -> None:
        """Generate the automatic §5 acknowledgment for a list message."""
        receipt = self.network.send(
            recipient, to_sim_address(envelope.mail_from), TrafficKind.ACK
        )
        if receipt.status.blocked:
            return
        ack = make_ack_message(
            envelope.message,
            ack_sender=envelope.rcpt_to,
            distributor=envelope.mail_from,
        )
        ack = stamp_message(
            ack,
            ZmailStamp(
                sender_isp=f"isp{self.isp_id}", message_class=CLASS_ACK
            ),
        )
        self.acks_sent += 1
        self._m["acks_sent"]()
        if receipt.status is not SendStatus.DELIVERED_LOCAL:
            self.transport.submit(
                Envelope(envelope.rcpt_to, envelope.mail_from, ack)
            )

    def _file(
        self, user_id: int, envelope: Envelope, *, paid: bool, folder: str
    ) -> None:
        self.mailbox(user_id).file(
            DeliveryRecord(envelope=envelope, paid=paid, folder=folder)
        )
