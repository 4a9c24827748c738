"""SMTP substrate: RFC 821/822 subset plus the Zmail header binding.

Zmail rides unmodified SMTP (§1.3 of the paper): the server and client
here speak plain SMTP, and all Zmail semantics live in ``X-Zmail-*``
headers (:mod:`repro.smtp.zmail_headers`) and in the ISP logic behind the
delivery handler. An in-memory transport gives deterministic delivery for
tests and simulations; the asyncio server/client pair runs the same
messages over real localhost TCP.
"""

from .address import EmailAddress, from_sim_address, parse_address, to_sim_address
from .client import SMTPClient, send_message
from .gateway import ZmailGateway
from .message import Headers, MailMessage
from .server import SMTPServer
from .transport import Envelope, InMemoryTransport, MailTransport
from .zmail_headers import (
    CLASS_ACK,
    CLASS_NORMAL,
    H_CLASS,
    H_LIST_TOKEN,
    H_SENDER_ISP,
    H_VERSION,
    ZMAIL_VERSION,
    ZmailStamp,
    is_ack,
    make_ack_message,
    read_stamp,
    stamp_message,
)

__all__ = [
    "EmailAddress",
    "parse_address",
    "from_sim_address",
    "to_sim_address",
    "Headers",
    "MailMessage",
    "SMTPServer",
    "ZmailGateway",
    "SMTPClient",
    "send_message",
    "Envelope",
    "MailTransport",
    "InMemoryTransport",
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
