"""RFC 822-subset message model: headers plus body.

Header field names are case-insensitive but order- and case-preserving,
matching real mail software. Serialisation uses CRLF line endings and a
blank line between headers and body; parsing accepts both CRLF and LF and
unfolds continuation lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterator

from ..errors import SMTPProtocolError

__all__ = ["Headers", "MailMessage"]


class Headers:
    """An ordered, case-insensitive multimap of header fields.

    Each field's lower-case name is computed once, when it is added, and
    kept beside the field, so a lookup lowers only the name it is given.
    """

    __slots__ = ("_items", "_keys")

    def __init__(self) -> None:
        self._items: list[tuple[str, str]] = []
        self._keys: list[str] = []  # each item's name, lower-cased

    def add(self, name: str, value: str) -> None:
        """Append a header field, preserving insertion order."""
        if "\n" in name or "\r" in name:
            raise SMTPProtocolError(f"header name {name!r} contains a newline")
        if "\n" in value or "\r" in value:
            raise SMTPProtocolError(f"header {name} value contains a newline")
        self._items.append((name, value))
        self._keys.append(name.lower())

    def get(self, name: str, default: str | None = None) -> str | None:
        """The first value for ``name`` (case-insensitive), or ``default``."""
        try:
            return self._items[self._keys.index(name.lower())][1]
        except ValueError:
            return default

    def replace(self, name: str, value: str) -> None:
        """Remove all fields called ``name`` and append one with ``value``."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> int:
        """Remove all fields called ``name``; returns how many were removed."""
        before = len(self._items)
        kept = self.without({name.lower()})
        self._items, self._keys = kept._items, kept._keys
        return before - len(self._items)

    def without(self, lowered: Collection[str]) -> "Headers":
        """A copy, in one pass, lacking every field whose lower-case name
        is in ``lowered``."""
        clone = Headers()
        for item, key in zip(self._items, self._keys):
            if key not in lowered:
                clone._items.append(item)
                clone._keys.append(key)
        return clone

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


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
