"""Whitelist filtering (§2.2).

A whitelist accepts mail from "known" senders and routes the rest to a
stricter check. Its §2.2 failure mode: "To take advantage of whitelists,
spammers usually forge their domain names" — sender identity in classic
SMTP is unauthenticated, so forgery passes the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["WhitelistDecision", "Whitelist"]


class WhitelistDecision(Enum):
    """Outcome of a whitelist check."""

    ACCEPT = "accept"  # listed sender: deliver directly
    FALLTHROUGH = "fallthrough"  # unlisted: send to further filtering


@dataclass
class Whitelist:
    """An accept-list over (claimed) sender addresses.

    ``check`` works on the *claimed* sender; with ``forgeable=True``
    (the realistic 2004 setting) a spammer who knows or guesses a listed
    address simply presents it.
    """

    forgeable: bool = True
    _listed: set[str] = field(default_factory=set)
    accepted: int = 0
    fell_through: int = 0
    forged_accepts: int = 0

    def add(self, sender: str) -> None:
        """Add a trusted correspondent."""
        self._listed.add(sender.lower())

    def remove(self, sender: str) -> None:
        """Remove a correspondent if present."""
        self._listed.discard(sender.lower())

    def __contains__(self, sender: str) -> bool:
        return sender.lower() in self._listed

    def __len__(self) -> int:
        return len(self._listed)

    def check(
        self, claimed_sender: str, *, actually_spam: bool = False
    ) -> WhitelistDecision:
        """Check one message by its claimed sender.

        Args:
            actually_spam: Ground truth, used only to count how many
                forged spam messages the list waved through.
        """
        if claimed_sender.lower() in self._listed:
            self.accepted += 1
            if actually_spam and self.forgeable:
                self.forged_accepts += 1
            return WhitelistDecision.ACCEPT
        self.fell_through += 1
        return WhitelistDecision.FALLTHROUGH
