"""The bank's economic audit: catching e-penny *minting* (§4.4 extended).

Credit-array anti-symmetry catches misreported message counts, but the
deeper attack is an ISP quietly minting e-pennies for its own users —
inflating balances or its pool without buying from the bank. The bank
cannot see ISP-internal books, yet it holds enough to bound them:

* the ISP's cumulative **purchases** and **sales** of e-pennies (its own
  §4.3 transactions), and
* the ISP's **net mail inflow** per reconciliation period, derived from
  the very credit arrays it already collects: an ISP that reported
  ``credit[j]`` sent that many more messages to ``j`` than it received,
  so its users' aggregate balance change from mail is
  ``-sum(credit)`` e-pennies.

Solvency bound: at any audit point, an honest ISP's cumulative sales
cannot exceed ``initial_pool + initial_user_balances + purchases + net
mail inflow`` — every e-penny it ever sold had to come from somewhere.
An ISP exceeding the bound has created e-pennies from nothing.
:class:`EconomicAuditor` accumulates these flows across reconciliation
rounds and flags violators, completing the paper's "the bank may make
further investigation" into an actual algorithm. :func:`minting_audit`
wires it to a small deployment with one minting ISP (``repro audit`` and
experiment E18).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..sim.workload import Address
from .config import ZmailConfig
from .protocol import ZmailNetwork

__all__ = ["IspPosition", "MintingAlert", "EconomicAuditor", "minting_audit"]


@dataclass
class IspPosition:
    """The bank's running view of one ISP's e-penny flows."""

    isp_id: int
    initial_endowment: int  # pool + user balances at registration
    purchased: int = 0  # e-pennies bought from the bank
    sold: int = 0  # e-pennies sold to the bank
    net_mail_inflow: int = 0  # from credit arrays, cumulative

    @property
    def ceiling(self) -> int:
        """Most the ISP could legitimately have sold by now."""
        return self.initial_endowment + self.purchased + self.net_mail_inflow

    @property
    def minted(self) -> int:
        """E-pennies sold beyond any legitimate source (0 if honest)."""
        return max(0, self.sold - self.ceiling)


@dataclass(frozen=True)
class MintingAlert:
    """One ISP flagged for selling more e-pennies than it could hold."""

    isp_id: int
    sold: int
    ceiling: int

    @property
    def excess(self) -> int:
        """How many e-pennies appeared from nothing."""
        return self.sold - self.ceiling


class EconomicAuditor:
    """Accumulates per-ISP flows across rounds and flags minting.

    Example:
        >>> auditor = EconomicAuditor()
        >>> auditor.register_isp(0, initial_endowment=1000)
        >>> auditor.note_sale(0, 600)
        >>> auditor.note_sale(0, 600)
        >>> [a.isp_id for a in auditor.check()]
        [0]
    """

    def __init__(self) -> None:
        self._positions: dict[int, IspPosition] = {}
        self.alerts: list[MintingAlert] = []

    # -- registration and flow recording ------------------------------------------

    def register_isp(self, isp_id: int, *, initial_endowment: int) -> None:
        """Start tracking an ISP from its known starting stock."""
        if isp_id in self._positions:
            raise ValueError(f"isp {isp_id} already tracked")
        self._positions[isp_id] = IspPosition(
            isp_id=isp_id, initial_endowment=initial_endowment
        )

    def position(self, isp_id: int) -> IspPosition:
        """The running position for ``isp_id``."""
        return self._positions[isp_id]

    def note_purchase(self, isp_id: int, value: int) -> None:
        """The ISP bought ``value`` e-pennies from the bank."""
        self._positions[isp_id].purchased += value

    def note_sale(self, isp_id: int, value: int) -> None:
        """The ISP sold ``value`` e-pennies to the bank."""
        self._positions[isp_id].sold += value

    def ingest_credit_reports(
        self, credit_reports: dict[int, dict[int, int]]
    ) -> None:
        """Fold one reconciliation round's arrays into net inflows.

        ``credit[j] > 0`` means the ISP sent more than it received from
        ``j``: a net outflow of e-pennies. Inflow is thus ``-sum``.
        """
        for isp_id, credit in credit_reports.items():
            if isp_id in self._positions:
                self._positions[isp_id].net_mail_inflow -= sum(credit.values())

    # -- the audit ------------------------------------------------------------------

    def check(self) -> list[MintingAlert]:
        """Flag every ISP currently violating the solvency bound."""
        fresh = []
        for position in self._positions.values():
            if position.minted > 0:
                alert = MintingAlert(
                    isp_id=position.isp_id,
                    sold=position.sold,
                    ceiling=position.ceiling,
                )
                fresh.append(alert)
        self.alerts = fresh
        return fresh


def minting_audit(mint: int, seed: int) -> list[MintingAlert]:
    """Audit a 3-ISP x 8-user deployment in which isp1 secretly adds
    ``mint`` e-pennies to its pool; returns the alerts after 14 days.

    Each day sends 300 random messages, runs one reconciliation round
    (whose credit arrays the auditor ingests), then the midnight pool
    rebalance, whose bank-account movements it records as purchases and
    sales.
    """
    config = ZmailConfig(
        initial_pool=500, minavail=200, maxavail=900,
        default_user_balance=50, auto_topup_amount=10,
    )
    net = ZmailNetwork(n_isps=3, users_per_isp=8, config=config, seed=seed)
    auditor = EconomicAuditor()
    endowment = config.initial_pool + 8 * config.default_user_balance
    for isp_id in net.compliant_isps():
        auditor.register_isp(isp_id, initial_endowment=endowment)
    net.isps[1].ledger.pool += mint  # off-the-books creation

    rng = random.Random(seed)
    for day in range(1, 15):
        for _ in range(300):
            net.send(Address(rng.randrange(3), rng.randrange(8)),
                     Address(rng.randrange(3), rng.randrange(8)))
        isps = net.compliant_isps()
        for isp in isps.values():
            isp.begin_snapshot(net.bank.next_seq)
        reports = {}
        for isp_id, isp in sorted(isps.items()):
            reports[isp_id] = isp.snapshot_reply()
            isp.resume_sending()
        net.bank.reconcile(reports)
        auditor.ingest_credit_reports(reports)
        before = {i: net.bank.account_balance(i) for i in isps}
        net.advance_day_to(day)
        for isp_id in isps:
            delta = net.bank.account_balance(isp_id) - before[isp_id]
            if delta < 0:
                auditor.note_purchase(isp_id, -delta)
            elif delta > 0:
                auditor.note_sale(isp_id, delta)
    return auditor.check()
