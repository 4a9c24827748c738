"""Email address parsing and formatting (RFC 821 subset).

Addresses are the ``local@domain`` form; the Zmail convention used across
the library maps the paper's ``(isp, user)`` coordinates onto
``user<u>@isp<i>.example``. :func:`to_sim_address` and
:func:`from_sim_address` convert between the two representations so the
SMTP layer and the simulator can exchange traffic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import SMTPProtocolError
from ..sim.workload import Address

__all__ = ["EmailAddress", "parse_address", "to_sim_address", "from_sim_address"]

_LOCAL_RE = re.compile(r"^[A-Za-z0-9!#$%&'*+/=?^_`{|}~.-]+$")
_DOMAIN_RE = re.compile(r"^[A-Za-z0-9]([A-Za-z0-9-]*[A-Za-z0-9])?"
                        r"(\.[A-Za-z0-9]([A-Za-z0-9-]*[A-Za-z0-9])?)*$")
_SIM_RE = re.compile(r"^user(\d+)@isp(\d+)\.example$")


@dataclass(frozen=True)
class EmailAddress:
    """A validated ``local@domain`` address."""

    local: str
    domain: str

    def __str__(self) -> str:
        return f"{self.local}@{self.domain}"


def parse_address(raw: str) -> EmailAddress:
    """Parse ``local@domain``, accepting an optional ``<...>`` wrapper.

    Raises:
        SMTPProtocolError: if the address is syntactically invalid.
    """
    text = raw.strip()
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    if "@" not in text:
        raise SMTPProtocolError(f"address {raw!r} has no @")
    local, _, domain = text.rpartition("@")
    if not local or not _LOCAL_RE.match(local):
        raise SMTPProtocolError(f"bad local part in {raw!r}")
    if not domain or not _DOMAIN_RE.match(domain):
        raise SMTPProtocolError(f"bad domain in {raw!r}")
    return EmailAddress(local, domain)


def from_sim_address(address: Address) -> EmailAddress:
    """Map a simulator ``(isp, user)`` address onto the SMTP convention."""
    return EmailAddress(f"user{address.user}", f"isp{address.isp}.example")


def to_sim_address(address: EmailAddress | str) -> Address:
    """Map an SMTP address following the convention back to ``(isp, user)``.

    Raises:
        SMTPProtocolError: if the address does not follow the
            ``user<u>@isp<i>.example`` convention.
    """
    text = str(address)
    match = _SIM_RE.match(text)
    if not match:
        raise SMTPProtocolError(f"{text!r} is not a simulator-convention address")
    return Address(isp=int(match.group(2)), user=int(match.group(1)))
