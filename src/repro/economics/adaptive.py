"""An adaptive, profit-driven spammer (dynamic counterpart of E2).

The closed-form analysis (:mod:`repro.economics.spammer`) assumes the
spammer knows the market. A real operator doesn't — they adjust volume by
observed return. :class:`AdaptiveSpammer` runs that feedback loop against
a live deployment: each period it blasts its current volume, observes
deliveries and (stochastic) conversions, computes realised profit, and
scales the next period's volume multiplicatively — up on profit, down on
loss.

The experiments' point: under status-quo pricing the loop *grows* to
saturation; under Zmail the very first periods lose money and the loop
drives volume toward zero. No oracle knowledge of the regime is needed —
the market signal alone kills the campaign, which is the paper's "market
forces will control the volume of spam" rendered operational.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.protocol import ZmailNetwork
from ..core.transfer import SendStatus
from ..sim.workload import Address, TrafficKind

__all__ = ["PeriodOutcome", "VolumeLearner", "AdaptiveSpammer"]

#: Default hard ceiling on the multiplicative loop. Without one, a long
#: profitable streak grows volume geometrically without bound — ~170
#: profitable periods at growth 1.5 overflow a float64's exact-integer
#: range and the "volume" stops meaning messages. Real operators are
#: bounded by infrastructure; the learner is bounded by this cap.
DEFAULT_MAX_VOLUME = 10_000_000


@dataclass
class VolumeLearner:
    """The multiplicative profit-feedback rule, extracted for reuse.

    ``update(profit)`` scales the current volume up by ``growth`` on a
    profitable period and down by ``decay`` on a loss. Two edge cases
    (both surfaced by arena reuse) are pinned here rather than left to
    ``int()`` truncation:

    * **Growth floor.** ``int(1 * 1.5) == 1``: a spammer that decayed to
      the floor could never grow again even while profitable. Growth
      always advances by at least one message.
    * **Overflow cap.** Volume is clamped to ``max_volume`` so long
      profitable streaks cannot run the multiplicative update past any
      physically meaningful blast size (see :data:`DEFAULT_MAX_VOLUME`).
    """

    volume: int
    growth: float = 1.5
    decay: float = 0.5
    min_volume: int = 1
    max_volume: int = DEFAULT_MAX_VOLUME

    def __post_init__(self) -> None:
        if self.growth <= 1.0 or not 0.0 < self.decay < 1.0:
            raise ValueError("need growth > 1 and 0 < decay < 1")
        if self.min_volume < 1:
            raise ValueError("min_volume must be >= 1")
        if self.max_volume < self.min_volume:
            raise ValueError("max_volume must be >= min_volume")
        if not self.min_volume <= self.volume <= self.max_volume:
            raise ValueError("volume outside [min_volume, max_volume]")

    def update(self, profit: float) -> int:
        """Adapt to one period's realised profit; returns the new volume."""
        if profit > 0:
            grown = max(self.volume + 1, int(self.volume * self.growth))
            self.volume = min(self.max_volume, grown)
        else:
            self.volume = max(self.min_volume, int(self.volume * self.decay))
        return self.volume


@dataclass(frozen=True)
class PeriodOutcome:
    """One period of the adaptive loop."""

    period: int
    attempted: int
    delivered: int
    blocked: int
    conversions: int
    revenue: float
    sending_cost: float

    @property
    def profit(self) -> float:
        """Realised profit for the period."""
        return self.revenue - self.sending_cost


@dataclass
class AdaptiveSpammer:
    """A volume-adjusting spam operator on a Zmail deployment.

    Attributes:
        network: The deployment to spam.
        address: The spammer's own address (compliant ISP: pays e-pennies;
            non-compliant: rides free).
        conversion_rate: Per-delivered-message purchase probability.
        revenue_per_response: Dollars per conversion.
        infra_cost_per_message: Status-quo sending cost in dollars.
        epenny_dollars: Dollar value of the e-pennies the spammer burns
            (0 when its ISP is non-compliant — nothing is debited).
        initial_volume: Period-0 blast size.
        growth / decay: Multiplicative volume factors on profit / loss.
        max_volume: Hard ceiling on the multiplicative update.
        seed: RNG seed for target choice and conversions.
    """

    network: ZmailNetwork
    address: Address
    conversion_rate: float = 0.0005
    revenue_per_response: float = 25.0
    infra_cost_per_message: float = 0.0001
    epenny_dollars: float = 0.01
    initial_volume: int = 200
    growth: float = 1.5
    decay: float = 0.5
    max_volume: int = DEFAULT_MAX_VOLUME
    seed: int = 0
    history: list[PeriodOutcome] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.conversion_rate <= 1.0:
            raise ValueError("conversion_rate outside [0, 1]")
        if self.initial_volume <= 0:
            raise ValueError("initial_volume must be positive")
        self._learner = VolumeLearner(
            volume=self.initial_volume,
            growth=self.growth,
            decay=self.decay,
            max_volume=self.max_volume,
        )
        self._rng = random.Random(self.seed)
        self._targets = [
            Address(isp, user)
            for isp in range(self.network.n_isps)
            for user in range(self.network.users_per_isp)
            if Address(isp, user) != self.address
        ]

    def run_period(self) -> PeriodOutcome:
        """Blast one period's volume and adapt."""
        volume = self._learner.volume
        delivered = blocked = 0
        epennies_spent = 0
        for _ in range(volume):
            target = self._rng.choice(self._targets)
            receipt = self.network.send(self.address, target, TrafficKind.SPAM)
            if receipt.status in (
                SendStatus.SENT_PAID, SendStatus.DELIVERED_LOCAL,
            ):
                delivered += 1
                epennies_spent += 1
            elif receipt.status is SendStatus.SENT_UNPAID:
                delivered += 1
            else:
                blocked += 1
        conversions = sum(
            1 for _ in range(delivered)
            if self._rng.random() < self.conversion_rate
        )
        outcome = PeriodOutcome(
            period=len(self.history),
            attempted=volume,
            delivered=delivered,
            blocked=blocked,
            conversions=conversions,
            revenue=conversions * self.revenue_per_response,
            sending_cost=volume * self.infra_cost_per_message
            + epennies_spent * self.epenny_dollars,
        )
        self.history.append(outcome)
        self._learner.update(outcome.profit)
        return outcome

    def run(self, periods: int) -> list[PeriodOutcome]:
        """Run the loop for several periods; resets daily limits between.

        Each period is treated as one day so the §4.1 quota does not
        conflate with the economic signal.
        """
        for day in range(periods):
            self.run_period()
            self.network.advance_day_to(self.network._last_day_seen + 1)
        return self.history

    # -- analysis -----------------------------------------------------------------

    def total_profit(self) -> float:
        """Cumulative realised profit."""
        return sum(outcome.profit for outcome in self.history)

    def final_volume(self) -> int:
        """Volume the operator settled on."""
        return self._learner.volume

    def collapsed(self, *, below: int = 10) -> bool:
        """Whether the market drove the campaign to (near) zero volume."""
        return self._learner.volume < below
