"""Transfer records: what happens when a user asks to send an email.

The Zmail decision tree of §4.1, reified as data so experiments can
account for every message:

* local delivery (same ISP) — e-penny moves between two local balances;
* compliant-to-compliant — sender debited, inter-ISP credit incremented,
  receiver's ISP credits on delivery (zero-sum end to end);
* compliant-to-non-compliant — sent unpaid (the paper's ``~compliant[j]``
  branch);
* blocked — empty balance or daily limit (the zombie brake);
* buffered — a credit snapshot is in progress; the message is queued and
  flushed when sending resumes;
* shed / deferred — the overload layer refused or queued the message
  *before* any ledger operation, so neither outcome moves value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..sim.workload import Address, TrafficKind

__all__ = [
    "SendStatus",
    "Letter",
    "SendReceipt",
    "RECEIPT_DELIVERED_LOCAL",
    "RECEIPT_BLOCKED_BALANCE",
    "RECEIPT_BLOCKED_LIMIT",
    "RECEIPT_BUFFERED",
    "RECEIPT_SHED",
    "RECEIPT_DEFERRED",
]


class SendStatus(Enum):
    """Terminal classification of one send attempt."""

    DELIVERED_LOCAL = "delivered_local"
    SENT_PAID = "sent_paid"
    SENT_UNPAID = "sent_unpaid"
    BLOCKED_BALANCE = "blocked_balance"
    BLOCKED_LIMIT = "blocked_limit"
    BUFFERED = "buffered"
    SHED = "shed"
    DEFERRED = "deferred"

    @property
    def blocked(self) -> bool:
        """Whether the send was refused outright."""
        return self in (SendStatus.BLOCKED_BALANCE, SendStatus.BLOCKED_LIMIT)


@dataclass(frozen=True, slots=True)
class Letter:
    """An email in flight between ISPs.

    ``paid`` records whether the sending ISP debited an e-penny (i.e. the
    sender's ISP is compliant and so is the destination); the receiving
    ISP decides payment by the *source ISP's* compliance, mirroring the
    paper's receive action, so ``paid`` is carried for audit only.

    ``content`` optionally carries the message's token stream so
    content-based policies (the FILTER handling of non-compliant mail)
    can actually read it; economics experiments leave it ``None`` to keep
    the hot path allocation-free.
    """

    sender: Address
    recipient: Address
    kind: TrafficKind
    paid: bool
    content: tuple[str, ...] | None = None

    @property
    def src_isp(self) -> int:
        """The sending ISP's index."""
        return self.sender.isp

    @property
    def dst_isp(self) -> int:
        """The destination ISP's index."""
        return self.recipient.isp

    @property
    def pair(self) -> tuple[int, int]:
        """The unordered ``(min, max)`` ISP pair this letter travels between.

        Per-pair in-flight accounting (the chaos invariant monitors) needs
        a direction-free key: a paid letter in flight on either direction
        of the i↔j link contributes +1 to ``credit_i[j] + credit_j[i]``.
        """
        a, b = self.sender.isp, self.recipient.isp
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True, slots=True)
class SendReceipt:
    """What a send attempt produced.

    ``letter`` is populated only when the message left the ISP (the
    network layer routes it); local deliveries and blocks carry ``None``.
    """

    status: SendStatus
    letter: Letter | None = None


# Interned letter-less receipts for the hot send path: a blocked or local
# outcome carries no per-message state, so every caller can share one
# frozen instance instead of allocating per send. (Receipts compare by
# value, so ``SendReceipt(SendStatus.BUFFERED) == RECEIPT_BUFFERED``.)
RECEIPT_DELIVERED_LOCAL = SendReceipt(SendStatus.DELIVERED_LOCAL)
RECEIPT_BLOCKED_BALANCE = SendReceipt(SendStatus.BLOCKED_BALANCE)
RECEIPT_BLOCKED_LIMIT = SendReceipt(SendStatus.BLOCKED_LIMIT)
RECEIPT_BUFFERED = SendReceipt(SendStatus.BUFFERED)
RECEIPT_SHED = SendReceipt(SendStatus.SHED)
RECEIPT_DEFERRED = SendReceipt(SendStatus.DEFERRED)
