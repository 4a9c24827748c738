"""Zombie and email-virus containment (§4.1, §5).

The daily ``limit`` bounds the e-pennies a compromised machine can burn,
and *hitting* the limit is itself the detection signal: "Exceeding this
limit blocks further outgoing mail (for that day), and the user is sent a
warning message to check for viruses."

:class:`ZombieMonitor` watches a deployment's limit-warning logs and
turns them into detection reports with latency and liability statistics,
quantifying the paper's claim that Zmail "provides a new mechanism for
detecting, limiting, and disinfecting zombie PCs".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.workload import Address
from .protocol import ZmailNetwork

__all__ = ["ZombieDetection", "ZombieMonitor", "warning_message"]


@dataclass(frozen=True)
class ZombieDetection:
    """One user flagged by the daily-limit mechanism."""

    address: Address
    messages_before_block: int
    daily_limit: int

    @property
    def liability_epennies(self) -> int:
        """Worst-case e-pennies the infection cost the user that day.

        Bounded by the limit — exactly the §5 point: "limiting the user's
        liability for the e-penny cost of virus-sent email".
        """
        return min(self.messages_before_block, self.daily_limit)


@dataclass
class ZombieMonitor:
    """Collects limit-warning events from every compliant ISP."""

    network: ZmailNetwork
    detections: list[ZombieDetection] = field(default_factory=list)
    _seen: set[Address] = field(default_factory=set)

    def poll(self) -> list[ZombieDetection]:
        """Sweep ISP warning logs; returns newly detected suspects."""
        fresh: list[ZombieDetection] = []
        for isp_id, isp in sorted(self.network.compliant_isps().items()):
            for user_id in isp.zombie_suspects():
                address = Address(isp_id, user_id)
                if address in self._seen:
                    continue
                self._seen.add(address)
                user = isp.ledger.user(user_id)
                detection = ZombieDetection(
                    address=address,
                    messages_before_block=user.sent_today,
                    daily_limit=user.daily_limit,
                )
                fresh.append(detection)
                self.detections.append(detection)
        return fresh

    def detected(self, address: Address) -> bool:
        """Whether ``address`` has been flagged at any point."""
        return address in self._seen


def warning_message(detection: ZombieDetection):
    """The §5 warning email: "the user is sent a warning message to
    check for viruses."

    Returns a :class:`~repro.smtp.message.MailMessage` from the ISP's
    postmaster to the flagged user, ready for local delivery. Imported
    lazily to keep :mod:`repro.core` free of an SMTP dependency on the
    hot paths.
    """
    from ..smtp.address import from_sim_address
    from ..smtp.message import MailMessage

    user_addr = str(from_sim_address(detection.address))
    postmaster = f"postmaster@isp{detection.address.isp}.example"
    body = (
        f"Your account sent {detection.messages_before_block} messages "
        f"today and reached its daily limit of {detection.daily_limit}.\n"
        "Further outgoing mail is blocked until tomorrow.\n\n"
        "If you did not send this mail, your computer may be infected "
        "with a virus; please scan it before requesting a limit reset.\n"
        f"Maximum e-penny liability today: "
        f"{detection.liability_epennies} e-pennies."
    )
    return MailMessage.compose(
        sender=postmaster,
        recipient=user_addr,
        subject="Warning: daily sending limit reached",
        body=body,
    )
