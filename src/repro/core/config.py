"""Configuration for the deployable Zmail system."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import ConfigError
from ..sim.clock import DAY, MONTH

__all__ = ["NonCompliantMailPolicy", "ZmailConfig"]


class NonCompliantMailPolicy(Enum):
    """What a compliant ISP does with mail arriving from a non-compliant ISP.

    §5 (Incremental Deployment): "a user in a compliant ISP may decide to
    segregate or discard email from non-compliant ISPs, or require any
    email from a non-compliant ISP to pass a spam filter."
    """

    DELIVER = "deliver"  # deliver normally (no payment attaches)
    FILTER = "filter"  # pass through a spam filter first
    SEGREGATE = "segregate"  # deliver to a junk folder
    DISCARD = "discard"  # drop it


@dataclass(frozen=True)
class ZmailConfig:
    """Tunable parameters of a Zmail deployment.

    Attributes:
        default_daily_limit: Per-user cap on outgoing messages per day; the
            zombie-containment knob of §4.1/§5.
        default_user_balance: e-pennies a new user starts with (the paper's
            "initial balances with their ISPs to buffer the fluctuations").
        default_user_account: Real pennies a new user deposits.
        initial_pool: e-pennies in a new ISP's sellable pool (``avail``).
        minavail / maxavail: Pool thresholds triggering bank buy/sell (§4.3).
        initial_bank_account: Real pennies each ISP holds at the bank.
        snapshot_quiesce_seconds: The §4.4 stop-sending window ("say 10
            minutes") used by the timeout snapshot method.
        reconciliation_period: How often the bank gathers credit arrays
            ("once a week or once a month"). Recorded, not read: the
            drives take their cadence from the scenario's
            ``reconcile.every``, and the scenario schema accepts only
            this default.
        noncompliant_policy: Default handling of non-compliant mail.
        auto_topup_amount: When a send is blocked on an empty e-penny
            balance, the ISP automatically sells the user this many
            e-pennies from its pool against their real-penny deposit
            (0 disables). This is the paper's "normal user ... can easily
            solve this problem" convenience made concrete.
        use_crypto: Recorded, not read: no drive encrypts bank traffic
            (the §4.3 encryption is modelled only in
            :mod:`repro.apn.zmail_spec`), and the scenario schema
            accepts only ``False``.
    """

    default_daily_limit: int = 200
    default_user_balance: int = 100
    default_user_account: int = 500
    initial_pool: int = 10_000
    minavail: int = 2_000
    maxavail: int = 50_000
    initial_bank_account: int = 1_000_000
    snapshot_quiesce_seconds: float = 600.0  # the paper's 10 minutes
    reconciliation_period: float = MONTH
    noncompliant_policy: NonCompliantMailPolicy = NonCompliantMailPolicy.DELIVER
    auto_topup_amount: int = 50
    use_crypto: bool = False

    def __post_init__(self) -> None:
        if self.default_daily_limit < 0:
            raise ConfigError("default_daily_limit must be non-negative")
        if self.default_user_balance < 0 or self.default_user_account < 0:
            raise ConfigError("initial user funds must be non-negative")
        if not 0 <= self.minavail <= self.maxavail:
            raise ConfigError("need 0 <= minavail <= maxavail")
        if self.initial_pool < 0 or self.initial_bank_account < 0:
            raise ConfigError("initial pool and bank account must be non-negative")
        if self.snapshot_quiesce_seconds <= 0:
            raise ConfigError("snapshot_quiesce_seconds must be positive")
        if self.auto_topup_amount < 0:
            raise ConfigError("auto_topup_amount must be non-negative")
        if self.reconciliation_period <= DAY / 24:
            raise ConfigError("reconciliation_period is unreasonably short")
