"""Per-user state held by a compliant ISP.

Each user has two purses — real pennies on deposit (``account``) and
e-pennies (``balance``) — plus the daily-limit counters of §4.1/§5 that
bound the damage a zombie infection can do. The limit itself is applied
in one place, :meth:`repro.core.isp.CompliantISP.submit`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InsufficientBalance, InsufficientFunds

__all__ = ["UserAccount"]


@dataclass(slots=True)
class UserAccount:
    """One user's purses, limit state and lifetime statistics.

    Carries ``__slots__``: deployments hold one instance per simulated
    user and every message touches two of them, so the per-instance
    ``__dict__`` is measurable at million-user scale.
    """

    user_id: int
    account: int  # real pennies on deposit with the ISP
    balance: int  # e-pennies
    daily_limit: int
    sent_today: int = 0
    lifetime_sent: int = 0
    lifetime_received: int = 0
    lifetime_received_paid: int = 0
    limit_warnings: int = 0
    junk_folder: int = 0  # segregated non-compliant messages
    inbox: int = 0  # delivered messages

    # -- purse operations ------------------------------------------------------

    def debit_epennies(self, amount: int) -> None:
        """Remove ``amount`` e-pennies; raises if the balance is short."""
        if amount < 0:
            raise ValueError(f"negative debit {amount}")
        if self.balance < amount:
            raise InsufficientBalance(
                f"user {self.user_id}: balance {self.balance} < {amount}"
            )
        self.balance -= amount

    def credit_epennies(self, amount: int) -> None:
        """Add ``amount`` e-pennies to the balance."""
        if amount < 0:
            raise ValueError(f"negative credit {amount}")
        self.balance += amount

    def debit_pennies(self, amount: int) -> None:
        """Remove real pennies; raises if the account is short."""
        if amount < 0:
            raise ValueError(f"negative debit {amount}")
        if self.account < amount:
            raise InsufficientFunds(
                f"user {self.user_id}: account {self.account} < {amount}"
            )
        self.account -= amount

    def credit_pennies(self, amount: int) -> None:
        """Add real pennies to the account."""
        if amount < 0:
            raise ValueError(f"negative credit {amount}")
        self.account += amount

    # -- daily-limit counters --------------------------------------------------

    def note_sent(self) -> None:
        """Record one successful outgoing message."""
        self.sent_today += 1
        self.lifetime_sent += 1

    def note_received(self, *, junk: bool = False, paid: bool = True) -> None:
        """Record one delivered message.

        ``paid`` marks deliveries that carried an e-penny (compliant
        origin); unpaid mail from non-compliant ISPs counts for inbox
        statistics but not for e-penny flow.
        """
        self.lifetime_received += 1
        if paid:
            self.lifetime_received_paid += 1
        if junk:
            self.junk_folder += 1
        else:
            self.inbox += 1

    def reset_daily(self) -> None:
        """Midnight reset of the §4.1 ``sent`` counter."""
        self.sent_today = 0

    @property
    def net_epenny_flow(self) -> int:
        """E-pennies earned minus spent — the user-neutrality statistic.

        Every recorded send is paid (unpaid sends to non-compliant ISPs
        are not counted as sends); only paid receives count as income.
        """
        return self.lifetime_received_paid - self.lifetime_sent
