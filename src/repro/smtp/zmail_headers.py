"""The Zmail-over-SMTP binding: payment metadata in ``X-Zmail-*`` headers.

The paper (§1.3): "Zmail can be implemented on top of the current Internet
email protocol SMTP... Zmail requires no change to SMTP." This module is
that binding. A compliant sending ISP stamps outgoing messages with:

* ``X-Zmail-Version`` — binding version;
* ``X-Zmail-Sender-ISP`` — the compliant ISP asserting payment;
* ``X-Zmail-Class`` — ``normal`` | ``ack`` (mailing-list acknowledgment);
* ``X-Zmail-List-Token`` — opaque token an ack must echo, letting a
  distributor match acknowledgments to list messages (§5).

Payment itself is *not* carried per message — that is the whole point of
the scheme (credits are reconciled in bulk between ISPs) — so the headers
are assertions checked against the receiving ISP's view of which peer ISP
the message arrived from, not bearer instruments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .message import MailMessage

__all__ = [
    "ZMAIL_VERSION",
    "H_VERSION",
    "H_SENDER_ISP",
    "H_CLASS",
    "H_LIST_TOKEN",
    "CLASS_NORMAL",
    "CLASS_ACK",
    "ZmailStamp",
    "stamp_message",
    "read_stamp",
    "make_ack_message",
    "is_ack",
]

ZMAIL_VERSION = "1"
H_VERSION = "X-Zmail-Version"
H_SENDER_ISP = "X-Zmail-Sender-ISP"
H_CLASS = "X-Zmail-Class"
H_LIST_TOKEN = "X-Zmail-List-Token"

CLASS_NORMAL = "normal"
CLASS_ACK = "ack"


@dataclass(frozen=True)
class ZmailStamp:
    """Decoded Zmail metadata from a message's headers."""

    sender_isp: str
    message_class: str = CLASS_NORMAL
    list_token: str | None = None


#: The lower-case names of every Zmail header, stripped before stamping.
_STAMP_KEYS = frozenset(
    name.lower() for name in (H_VERSION, H_SENDER_ISP, H_CLASS, H_LIST_TOKEN)
)


def stamp_message(message: MailMessage, stamp: ZmailStamp) -> MailMessage:
    """Return a copy of ``message`` carrying the Zmail headers.

    Existing Zmail headers are dropped in the one pass that copies the
    rest, and the stamp's headers are appended — a receiving ISP must
    never trust sender-supplied stamps, and a sending ISP must not
    forward them.
    """
    headers = message.headers.without(_STAMP_KEYS)
    headers.add(H_VERSION, ZMAIL_VERSION)
    headers.add(H_SENDER_ISP, stamp.sender_isp)
    headers.add(H_CLASS, stamp.message_class)
    if stamp.list_token is not None:
        headers.add(H_LIST_TOKEN, stamp.list_token)
    return MailMessage(headers=headers, body=message.body)


def read_stamp(message: MailMessage) -> ZmailStamp | None:
    """Decode the Zmail stamp, or ``None`` if the message is unstamped."""
    if message.headers.get(H_VERSION) != ZMAIL_VERSION:
        return None
    sender_isp = message.headers.get(H_SENDER_ISP)
    if not sender_isp:
        return None
    return ZmailStamp(
        sender_isp=sender_isp,
        message_class=message.headers.get(H_CLASS, CLASS_NORMAL) or CLASS_NORMAL,
        list_token=message.headers.get(H_LIST_TOKEN),
    )


def make_ack_message(
    original: MailMessage, *, ack_sender: str, distributor: str
) -> MailMessage:
    """Build the §5 acknowledgment email for a received list message.

    The ack is "a special-purpose email message... generated by the
    receiver's ISP or email client and sent back to the email distributor"
    returning the e-penny. It echoes the list token so the distributor can
    match it, and is processed automatically rather than delivered to a
    human inbox.
    """
    token = original.headers.get(H_LIST_TOKEN, "") or ""
    ack = MailMessage.compose(
        sender=ack_sender,
        recipient=distributor,
        subject=f"Ack: {original.subject}",
        body="",
        extra_headers={H_CLASS: CLASS_ACK, H_LIST_TOKEN: token},
    )
    return ack


def is_ack(message: MailMessage) -> bool:
    """Whether a message is a mailing-list acknowledgment."""
    return (message.headers.get(H_CLASS) or "") == CLASS_ACK
