"""A compliant ISP's full SMTP gateway.

Ties the substrates together into the deployable unit the paper
envisions: one :class:`ZmailGateway` per compliant ISP that

* **outbound** — stamps messages with the ISP's ``X-Zmail-*`` headers and
  submits them over any :class:`~repro.smtp.transport.MailTransport`
  (in-memory for tests, real SMTP via :mod:`repro.smtp.client`);
* **inbound** — authenticates the stamp against the transport-level
  origin (a stamp naming a different ISP than the envelope's domain is
  forged and the message is rejected) and accepts the rest: the Zmail
  accounting on the shared :class:`~repro.core.protocol.ZmailNetwork`
  already counted the delivery in the recipient's ledger counters
  (``inbox``, ``junk_folder``, ``lifetime_received_paid``), so the
  gateway keeps no delivered mail and serves in O(users) memory;
* **acknowledgments** — mailing-list messages (``X-Zmail-List-Token``)
  are acknowledged automatically per §5: the ack email returns the
  e-penny to the distributor *without* reaching a human inbox.

With an :class:`~repro.core.overload.OverloadConfig` the gateway also
applies admission control to outbound submissions: saturation defers
(bounded queue, exponential-backoff retries via :meth:`ZmailGateway.pump`,
timed by the gateway's ``clock``) or sheds, and a deferred message that
exhausts its retries is terminally bounced (counted as
``gateway.bounced`` and traced as ``gateway.bounce``).
All gateway counters are exported through the shared network's
:class:`~repro.sim.metrics.MetricsRegistry` under ``gateway.*`` names.
"""

from __future__ import annotations

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

__all__ = ["ZmailGateway", "PENDING"]

#: A deferred submission ``(sender_user, recipient, message, list_token)``
#: in the gateway's pending journal.
PENDING = Record(
    Field("sender_user", int, 0),
    Field("recipient", ADDRESS, 0),
    Field("message", Codec(str, MailMessage.serialize, MailMessage.parse)),
    Field("list_token", Nullable(str)),
    cls=tuple,
)


def _kind(list_token: str | None) -> TrafficKind:
    return TrafficKind.NORMAL if list_token is None else TrafficKind.MAILING_LIST


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
        self.overload = overload
        self._clock = clock
        # Trace through the shared network's recorder so gateway events
        # interleave with the accounting events they cause.
        self.tracer = network.tracer
        self._admission: AdmissionController | None = None
        if overload is not None:
            self._admission = AdmissionController(f"gateway{isp_id}", overload)
            self._admission.on_bounce = self._bounce_deferred
        # Every gateway decision is counted once, in the shared
        # registry, summed across the network's gateways under one
        # namespace.
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
        if self._admission is not None:
            now = self._clock()
            shed_class = shed_class_for(
                _kind(list_token),
                paid=self.network.bank.is_compliant(recipient.isp),
            )
            verdict = self._admission.admit(now, shed_class)
            if verdict != "accept":
                if verdict == "defer":
                    self._admission.defer(
                        now, (sender_user, recipient, message, list_token),
                        shed_class,
                    )
                status = SendStatus.DEFERRED if verdict == "defer" else SendStatus.SHED
                self._m["deferred" if verdict == "defer" else "shed"]()
                if self.tracer.enabled:
                    self.tracer.emit(
                        "gateway.submit",
                        sender=str(Address(self.isp_id, sender_user)),
                        status=status.value,
                    )
                return status
        return self._submit_admitted(sender_user, recipient, message, list_token)

    def _submit_admitted(
        self,
        sender_user: int,
        recipient: Address,
        message: MailMessage,
        list_token: str | None,
    ) -> SendStatus:
        """The pre-overload submission path: account, stamp, transport."""
        receipt = self.network.send(
            Address(self.isp_id, sender_user), recipient, _kind(list_token)
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "gateway.submit",
                sender=str(Address(self.isp_id, sender_user)),
                status=receipt.status.value,
            )
        if receipt.status.blocked or receipt.status is SendStatus.BUFFERED:
            self._m["rejected_sends"]()
            return receipt.status
        # Local mail never leaves the ISP: the send already counted it
        # in the recipient's inbox, so there is nothing to stamp.
        if receipt.status is not SendStatus.DELIVERED_LOCAL:
            stamped = stamp_message(
                message,
                ZmailStamp(
                    sender_isp=f"isp{self.isp_id}",
                    message_class=CLASS_NORMAL,
                    list_token=list_token,
                ),
            )
            self.transport.submit(Envelope(
                mail_from=str(from_sim_address(Address(self.isp_id, sender_user))),
                rcpt_to=str(from_sim_address(recipient)),
                message=stamped,
            ))
        self._m["submitted"]()
        return receipt.status

    # -- overload: deferred retries and terminal bounces ----------------------------

    def pump(self) -> int:
        """Retry deferred submissions due by the clock; returns how many.

        Accepted retries run the normal submission path; exhausted ones
        are terminally bounced by the bounce hook. A no-op without
        overload protection.
        """
        if self._admission is None:
            return 0
        processed = 0
        for outcome, item in self._admission.pump(self._clock()):
            processed += 1
            if outcome == "accept":
                self._submit_admitted(*item.payload)
            # "bounce" outcomes were handled by the on_bounce hook.
        return processed

    def _bounce_deferred(self, now: float, item: DeferredItem, reason: str) -> None:
        """Terminal bounce: counted and traced; the mail goes no further."""
        self._m["bounced"]()
        if self.tracer.enabled:
            self.tracer.emit(
                "gateway.bounce", recipient=str(from_sim_address(item.payload[1]))
            )

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
        *sending* gateway — this side only verifies, counts the delivery
        (``gateway.delivered_inbound`` and the ``gateway.inbound`` trace
        outcome, ``inbox`` or ``junk``) and, for list messages, generates
        the §5 acknowledgment. Inbound acks are absorbed without reaching
        any inbox.

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
            self._m["forged_rejected"]()
            if tracer.enabled:
                tracer.emit("gateway.inbound", outcome="forged")
            return False

        if is_ack(envelope.message):
            # §5: acks are processed automatically, never delivered.
            self._m["acks_absorbed"]()
            if tracer.enabled:
                tracer.emit("gateway.inbound", outcome="ack")
            return True

        self._m["delivered_inbound"]()
        if tracer.enabled:
            paid = self.network.bank.is_compliant(sender.isp)
            tracer.emit("gateway.inbound", outcome="inbox" if paid else "junk")

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
        self._m["acks_sent"]()
        if receipt.status is not SendStatus.DELIVERED_LOCAL:
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
            self.transport.submit(
                Envelope(envelope.rcpt_to, envelope.mail_from, ack)
            )
