"""RFC 822-subset message model: headers plus body.

Header field names are case-insensitive but order- and case-preserving,
matching real mail software. Serialisation uses CRLF line endings and a
blank line between headers and body; parsing accepts both CRLF and LF and
unfolds continuation lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import SMTPProtocolError

__all__ = ["Headers", "MailMessage"]


class Headers:
    """An ordered, case-insensitive multimap of header fields."""

    def __init__(self) -> None:
        self._items: list[tuple[str, str]] = []

    def add(self, name: str, value: str) -> None:
        """Append a header field, preserving insertion order."""
        if "\n" in name or "\r" in name:
            raise SMTPProtocolError(f"header name {name!r} contains a newline")
        if "\n" in value or "\r" in value:
            raise SMTPProtocolError(f"header {name} value contains a newline")
        self._items.append((name, value))

    def get(self, name: str, default: str | None = None) -> str | None:
        """The first value for ``name`` (case-insensitive), or ``default``."""
        lowered = name.lower()
        for key, value in self._items:
            if key.lower() == lowered:
                return value
        return default

    def replace(self, name: str, value: str) -> None:
        """Remove all fields called ``name`` and append one with ``value``."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> int:
        """Remove all fields called ``name``; returns how many were removed."""
        lowered = name.lower()
        before = len(self._items)
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]
        return before - len(self._items)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def copy(self) -> "Headers":
        """A shallow copy preserving order."""
        clone = Headers()
        clone._items = list(self._items)
        return clone


@dataclass
class MailMessage:
    """A parsed email: envelope-independent headers and body.

    The envelope (SMTP MAIL FROM / RCPT TO) is carried separately by the
    transports; ``From``/``To`` headers here are display content, exactly
    as in real SMTP.
    """

    headers: Headers = field(default_factory=Headers)
    body: str = ""

    # -- construction -------------------------------------------------------

    @classmethod
    def compose(
        cls,
        *,
        sender: str,
        recipient: str,
        subject: str = "",
        body: str = "",
        extra_headers: dict[str, str] | None = None,
    ) -> "MailMessage":
        """Build a message with the standard From/To/Subject headers."""
        msg = cls()
        msg.headers.add("From", sender)
        msg.headers.add("To", recipient)
        if subject:
            msg.headers.add("Subject", subject)
        for name, value in (extra_headers or {}).items():
            msg.headers.add(name, value)
        msg.body = body
        return msg

    # -- serialisation --------------------------------------------------------

    def serialize(self) -> str:
        """Render to wire form with CRLF line endings."""
        lines = [f"{name}: {value}" for name, value in self.headers]
        header_block = "\r\n".join(lines)
        body = self.body.replace("\r\n", "\n").replace("\n", "\r\n")
        return f"{header_block}\r\n\r\n{body}"

    @classmethod
    def parse(cls, raw: str) -> "MailMessage":
        """Parse wire form; accepts CRLF or LF, unfolds continuations.

        Raises:
            SMTPProtocolError: on a malformed header line.
        """
        normalized = raw.replace("\r\n", "\n")
        head, _, body = normalized.partition("\n\n")
        msg = cls()
        current: list[str] | None = None
        for line in head.split("\n"):
            if not line:
                continue
            if line[0] in " \t":
                if current is None:
                    raise SMTPProtocolError("continuation line before any header")
                current[1] += " " + line.strip()
                continue
            if ":" not in line:
                raise SMTPProtocolError(f"malformed header line {line!r}")
            if current is not None:
                msg.headers.add(current[0], current[1])
            name, _, value = line.partition(":")
            current = [name.strip(), value.strip()]
        if current is not None:
            msg.headers.add(current[0], current[1])
        msg.body = body
        return msg

    # -- convenience ---------------------------------------------------------

    @property
    def subject(self) -> str:
        """The Subject header, or the empty string."""
        return self.headers.get("Subject", "") or ""

    @property
    def sender(self) -> str:
        """The From header, or the empty string."""
        return self.headers.get("From", "") or ""

    @property
    def recipient(self) -> str:
        """The To header, or the empty string."""
        return self.headers.get("To", "") or ""

    def copy(self) -> "MailMessage":
        """An independent copy (headers are duplicated)."""
        clone = MailMessage(headers=self.headers.copy(), body=self.body)
        return clone
