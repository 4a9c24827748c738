"""The spam-growth timeline: the paper's motivating trajectory (§1.1).

The paper's only time-series data: spam was 8% of email traffic in 2001
and over 60% in April 2004 (Brightmail). A logistic share curve fitted to
exactly those two points reconstructs the motivating trend — spam on
course to drown email entirely ("threatens the social viability of the
Internet itself") — and lets experiments overlay the counterfactual:
Zmail introduced in year ``t`` re-prices the bulk senders, capping the
share at the surviving (targeted, paid) volume.

This is the closest thing the paper has to a motivation figure, and
experiment E19 regenerates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SpamShareTimeline"]


@dataclass(frozen=True)
class SpamShareTimeline:
    """A logistic spam-share model through the paper's two data points.

    The share follows ``s(t) = 1 / (1 + exp(-k (t - t0)))``; ``fit``
    solves ``k`` and ``t0`` from the two cited observations.

    Attributes:
        k: Logistic growth rate per year.
        t0: Year at which the share crosses 50%.
    """

    k: float
    t0: float

    @classmethod
    def fit(
        cls,
        *,
        year_a: float = 2001.0,
        share_a: float = 0.08,
        year_b: float = 2004.25,  # April 2004
        share_b: float = 0.60,
    ) -> "SpamShareTimeline":
        """Fit the logistic through two (year, share) observations."""
        if not 0.0 < share_a < 1.0 or not 0.0 < share_b < 1.0:
            raise ValueError("shares must be in (0, 1)")
        if year_b <= year_a or share_b <= share_a:
            raise ValueError("need increasing (year, share) observations")
        logit_a = math.log(share_a / (1.0 - share_a))
        logit_b = math.log(share_b / (1.0 - share_b))
        k = (logit_b - logit_a) / (year_b - year_a)
        t0 = year_a - logit_a / k
        return cls(k=k, t0=t0)

    def share(self, year: float) -> float:
        """Projected spam share of all email traffic in ``year``."""
        return 1.0 / (1.0 + math.exp(-self.k * (year - self.t0)))

    def with_zmail(
        self, year: float, *, adopted_at: float, residual_share: float = 0.1
    ) -> float:
        """Counterfactual share with Zmail adopted in ``adopted_at``.

        Before adoption the unchecked trend applies; after it, bulk spam
        is re-priced away and only the surviving targeted volume remains
        (``residual_share`` of traffic, from the E2 market projection),
        approached with a one-year relaxation.
        """
        if year <= adopted_at:
            return self.share(year)
        unchecked = self.share(adopted_at)
        decay = math.exp(-(year - adopted_at))
        return residual_share + (unchecked - residual_share) * decay
