"""Normal-user flow analysis: the zero-net-cost claim (experiment E4).

§1.2 claim 2: "Users who receive as much email as they send, on average,
will neither pay nor profit from email, once they have set up initial
balances with their ISPs to buffer the fluctuations."

:func:`analyze_user_flows` reads lifetime send/receive counts out of a
driven :class:`~repro.core.protocol.ZmailNetwork` and summarises the
distribution of per-user net e-penny flow, and
:func:`required_buffer` estimates the initial balance needed to ride out
fluctuations at a given confidence level for a balanced sender (a random
walk's excursion bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.protocol import ZmailNetwork
from ..sim.metrics import summary_stats
from ..sim.workload import TrafficKind

__all__ = ["UserFlowSummary", "analyze_user_flows", "required_buffer"]


@dataclass(frozen=True)
class UserFlowSummary:
    """Distribution of per-user net e-penny flow across a deployment."""

    users: int
    mean_net_flow: float
    stddev_net_flow: float
    min_net_flow: int
    max_net_flow: int
    mean_sent: float
    mean_received: float
    fraction_within: float  # |net| <= tolerance
    tolerance: int


def analyze_user_flows(
    network: ZmailNetwork, *, exclude: set | None = None, tolerance: int = 10
) -> UserFlowSummary:
    """Summarise net e-penny flow per user over everything sent so far.

    Args:
        exclude: Addresses to omit (spammers, list distributors — actors
            whose flows are intentionally unbalanced).
        tolerance: Net-flow magnitude counted as "effectively zero".
    """
    exclude = exclude or set()
    flows: list[int] = []
    sent: list[int] = []
    received: list[int] = []
    for isp_id, isp in sorted(network.compliant_isps().items()):
        for user in isp.ledger.users():
            from ..sim.workload import Address

            if Address(isp_id, user.user_id) in exclude:
                continue
            flows.append(user.net_epenny_flow)
            sent.append(user.lifetime_sent)
            received.append(user.lifetime_received)
    stats = summary_stats(flows)
    within = sum(1 for f in flows if abs(f) <= tolerance)
    return UserFlowSummary(
        users=len(flows),
        mean_net_flow=stats["mean"],
        stddev_net_flow=stats["stddev"],
        min_net_flow=int(stats["min"]) if flows else 0,
        max_net_flow=int(stats["max"]) if flows else 0,
        mean_sent=summary_stats(sent)["mean"],
        mean_received=summary_stats(received)["mean"],
        fraction_within=within / len(flows) if flows else 0.0,
        tolerance=tolerance,
    )


def required_buffer(
    messages_per_day: float, days: int, *, confidence: float = 0.99
) -> int:
    """Initial e-penny balance buffering a balanced user's fluctuations.

    A user sending and receiving ``messages_per_day`` each (independent
    Poisson) has a net-flow random walk whose position after ``days`` has
    standard deviation ``sqrt(2 * rate * days)``. The returned buffer
    covers the walk's *minimum* over the period at roughly the requested
    confidence, using the reflection principle (factor ~2 on the tail).
    """
    if messages_per_day < 0 or days <= 0:
        raise ValueError("need non-negative rate and positive days")
    if not 0.5 <= confidence < 1.0:
        raise ValueError("confidence must be in [0.5, 1)")
    sigma = math.sqrt(2.0 * messages_per_day * days)
    # Inverse normal tail via the Beasley-Springer/Moro-lite approximation
    # is overkill; a conservative bound from the complementary error
    # function inverse at (1-confidence)/2 does the job.
    z = _z_for_tail((1.0 - confidence) / 2.0)
    return int(math.ceil(z * sigma))


def _z_for_tail(tail: float) -> float:
    """Smallest z with P(N(0,1) > z) <= tail, by bisection on erfc."""
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > tail:
            lo = mid
        else:
            hi = mid
    return hi
