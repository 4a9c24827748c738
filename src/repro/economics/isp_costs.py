"""ISP cost model: what spam costs the infrastructure (§1.1, §1.2).

The paper cites: $10B of extra mail-server cost in the US in 2003
(Ferris Research), $20.5B worldwide (Radicati), $300k/year productivity
loss per 1,000-employee business (Gartner), and Brightmail's measurement
that spam grew from 8% of traffic in 2001 to over 60% in April 2004.

:class:`ISPCostModel` turns per-message resource prices into annual cost
figures under a given spam share, so experiments can report the saving a
spam reduction produces (§1.2 claim 3: Zmail "reduces the overhead costs
of ISPs by saving their disk space, bandwidth, and computational cost for
running spam filters").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SPAM_SHARE_2001",
    "SPAM_SHARE_2004",
    "ISPCostModel",
    "CostBreakdown",
    "productivity_loss_annual",
]

# Brightmail's cited traffic shares.
SPAM_SHARE_2001 = 0.08
SPAM_SHARE_2004 = 0.60


@dataclass(frozen=True)
class CostBreakdown:
    """Annual ISP costs attributable to each resource, in dollars."""

    bandwidth: float
    storage: float
    filtering: float

    @property
    def total(self) -> float:
        """All spam-driven infrastructure cost."""
        return self.bandwidth + self.storage + self.filtering


@dataclass(frozen=True)
class ISPCostModel:
    """Per-message resource prices for an ISP of a given size.

    Defaults approximate a mid-2000s mid-size ISP: a 10 kB average
    message, bandwidth at $0.10/GB delivered, 30-day retention on
    $1/GB-year storage, and a content filter burning ~2 ms of CPU per
    message on hardware amortising to $0.05 per CPU-hour.

    Attributes:
        legitimate_messages_per_year: Ham volume the ISP must carry anyway.
        message_kb: Average message size.
        bandwidth_dollars_per_gb: Transit + peering price.
        storage_dollars_per_gb_year: Amortised storage price.
        retention_days: How long messages sit in mailboxes on average.
        filter_cpu_ms: Filter CPU per message (0 disables filtering cost —
            the Zmail case, where no filter runs).
        cpu_dollars_per_hour: Amortised compute price.
    """

    legitimate_messages_per_year: float = 1e9
    message_kb: float = 10.0
    bandwidth_dollars_per_gb: float = 0.10
    storage_dollars_per_gb_year: float = 1.0
    retention_days: float = 30.0
    filter_cpu_ms: float = 2.0
    cpu_dollars_per_hour: float = 0.05

    def message_volume(self, spam_share: float) -> float:
        """Total messages/year carried when spam is ``spam_share`` of traffic."""
        if not 0.0 <= spam_share < 1.0:
            raise ValueError("spam_share must be in [0, 1)")
        return self.legitimate_messages_per_year / (1.0 - spam_share)

    def annual_cost(
        self, spam_share: float, *, filtering_enabled: bool = True
    ) -> CostBreakdown:
        """Annual infrastructure cost at a given spam share."""
        messages = self.message_volume(spam_share)
        gb = messages * self.message_kb / 1e6
        bandwidth = gb * self.bandwidth_dollars_per_gb
        storage = gb * (self.retention_days / 365.0) * self.storage_dollars_per_gb_year
        if filtering_enabled and self.filter_cpu_ms > 0:
            cpu_hours = messages * self.filter_cpu_ms / 3.6e6
            filtering = cpu_hours * self.cpu_dollars_per_hour
        else:
            filtering = 0.0
        return CostBreakdown(bandwidth, storage, filtering)



def productivity_loss_annual(
    *,
    employees: int,
    spam_per_employee_day: float = 15.0,
    seconds_per_spam: float = 5.0,
    hourly_wage_dollars: float = 30.0,
    work_days_per_year: int = 250,
) -> float:
    """Annual worker-productivity loss from triaging spam, in dollars.

    Reproduces the paper's Gartner citation ("a business with 1,000
    employees loses $300,000 a year in worker productivity due to spam"):
    with the defaults — 15 spam/employee/day at 5 seconds each, a $30/h
    fully-loaded wage, 250 working days — 1,000 employees lose about
    $156k/year on triage alone; Gartner's $300k also prices misfiled mail
    and interruption recovery, i.e. roughly 10 seconds per spam, which
    the ``seconds_per_spam`` knob expresses directly.
    """
    if employees < 0:
        raise ValueError("employees must be non-negative")
    hours = employees * spam_per_employee_day * work_days_per_year * (
        seconds_per_spam / 3600.0
    )
    return hours * hourly_wage_dollars
