"""The central bank (§4.3–§4.4).

The bank manages e-pennies *for ISPs only* — "Instead of having the bank
itself manage e-pennies for all individual email users, which is
inefficient, we let the bank manage e-pennies for each compliant ISP and
let each compliant ISP manage e-pennies for its own users."

Responsibilities:

* hold each compliant ISP's real-penny account;
* sell/buy e-pennies to/from ISP pools with nonce replay protection
  (§4.3; the NCR/DCR encryption of those messages is modelled once, in
  :mod:`repro.apn.zmail_spec`);
* publish the ``compliant`` directory;
* run reconciliation rounds: collect credit arrays, verify anti-symmetry,
  flag misbehaving ISPs (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import NonceRegistry
from ..errors import InsufficientFunds, NotCompliant, UnknownISP
from .misbehavior import (
    ReconciliationReport,
    infer_suspects,
    verify_credit_matrix,
)

__all__ = ["BuyResult", "Bank"]


@dataclass(frozen=True)
class BuyResult:
    """Outcome of an ISP's e-penny purchase request."""

    accepted: bool
    value: int
    nonce: int


class Bank:
    """The clearinghouse for e-pennies and the compliance auditor.

    Example:
        >>> bank = Bank()
        >>> bank.register_isp(0, initial_account=1000)
        >>> bank.buy_epennies(0, value=300, nonce=1).accepted
        True
        >>> bank.account_balance(0)
        700
    """

    def __init__(self) -> None:
        self._accounts: dict[int, int] = {}
        self._compliant: dict[int, bool] = {}
        self._nonces: dict[int, NonceRegistry] = {}
        self._seq = 0
        self.reports: list[ReconciliationReport] = []
        self.buy_requests = 0
        self.sell_requests = 0

    # -- registry -----------------------------------------------------------------

    def register_isp(self, isp_id: int, *, initial_account: int) -> None:
        """Open an account and mark the ISP compliant."""
        if isp_id in self._accounts:
            raise ValueError(f"isp {isp_id} already registered")
        if initial_account < 0:
            raise ValueError("initial_account must be non-negative")
        self._accounts[isp_id] = initial_account
        self._compliant[isp_id] = True
        self._nonces[isp_id] = NonceRegistry()

    def set_compliant(self, isp_id: int, compliant: bool) -> None:
        """Flip an ISP's compliance flag (incremental deployment)."""
        if isp_id not in self._accounts:
            raise UnknownISP(f"isp {isp_id} is not registered")
        self._compliant[isp_id] = compliant

    def compliance_directory(self) -> dict[int, bool]:
        """The published ``compliant`` array (§4): broadcast to all ISPs."""
        return dict(self._compliant)

    def is_compliant(self, isp_id: int) -> bool:
        """Whether ``isp_id`` is registered and currently compliant."""
        return self._compliant.get(isp_id, False)

    def account_balance(self, isp_id: int) -> int:
        """Real pennies in the ISP's bank account."""
        try:
            return self._accounts[isp_id]
        except KeyError:
            raise UnknownISP(f"isp {isp_id} is not registered") from None

    def total_deposits(self) -> int:
        """Sum of all ISP accounts (for conservation audits)."""
        return sum(self._accounts.values())

    # -- durable state (crash recovery) ------------------------------------------------

    def state_dict(self) -> dict:
        """The bank's durable state as a JSON-compatible dict.

        Covers accounts, the compliance directory, the reconciliation
        sequence number and the replay-protection nonce sets — everything
        a restarted bank needs to keep the money exact and keep rejecting
        replays. Volatile state (reports history, request counters) is
        deliberately excluded: a crash loses it.
        """
        return {
            "accounts": {str(k): v for k, v in sorted(self._accounts.items())},
            "compliant": {str(k): v for k, v in sorted(self._compliant.items())},
            "seq": self._seq,
            "nonces": {
                str(k): sorted(reg._seen)
                for k, reg in sorted(self._nonces.items())
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore durable state written by :meth:`state_dict`, in place.

        Each ISP's nonces must be a list of distinct ints: anything else
        raises ``TypeError`` or ``ValueError`` before the bank changes.
        """
        accounts = {int(k): int(v) for k, v in state["accounts"].items()}
        compliant = {int(k): bool(v) for k, v in state["compliant"].items()}
        seq = int(state["seq"])
        nonces = {}
        for key, seen in state["nonces"].items():
            if type(seen) is not list or any(type(n) is not int for n in seen):
                raise TypeError(f"isp {key}: nonces must be a list of ints")
            registry = NonceRegistry()
            registry._seen = set(seen)
            if len(registry) != len(seen):
                raise ValueError(f"isp {key}: nonces repeat")
            nonces[int(key)] = registry
        self._accounts, self._compliant = accounts, compliant
        self._seq, self._nonces = seq, nonces

    # -- §4.3 buy / sell -------------------------------------------------------------

    def _check_member(self, isp_id: int) -> None:
        if isp_id not in self._accounts:
            raise UnknownISP(f"isp {isp_id} is not registered")
        if not self._compliant[isp_id]:
            raise NotCompliant(f"isp {isp_id} is not compliant")

    def buy_epennies(self, isp_id: int, *, value: int, nonce: int) -> BuyResult:
        """ISP buys ``value`` e-pennies for its pool with real pennies.

        Replays (reused nonces) raise :class:`ReplayDetected`. A request
        exceeding the account is *rejected*, not partially filled,
        mirroring the paper's accept/reject reply.
        """
        self._check_member(isp_id)
        if value <= 0:
            raise ValueError(f"purchase value must be positive, got {value}")
        self._nonces[isp_id].check_and_record(nonce)
        self.buy_requests += 1
        if self._accounts[isp_id] >= value:
            self._accounts[isp_id] -= value
            return BuyResult(accepted=True, value=value, nonce=nonce)
        return BuyResult(accepted=False, value=value, nonce=nonce)

    def sell_epennies(self, isp_id: int, *, value: int, nonce: int) -> int:
        """ISP sells ``value`` e-pennies from its pool back for real pennies.

        Returns the echoed nonce (the paper's ``sellreply``).
        """
        self._check_member(isp_id)
        if value <= 0:
            raise ValueError(f"sale value must be positive, got {value}")
        self._nonces[isp_id].check_and_record(nonce)
        self.sell_requests += 1
        self._accounts[isp_id] += value
        return nonce

    # -- §4.4 reconciliation --------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next reconciliation round will use."""
        return self._seq

    def reconcile(
        self, credit_reports: dict[int, dict[int, int]]
    ) -> ReconciliationReport:
        """Verify one round of collected credit arrays.

        Args:
            credit_reports: ``{isp_id: credit_array}`` gathered by a
                snapshot coordinator from every compliant ISP.

        Returns:
            The :class:`ReconciliationReport`, also appended to
            :attr:`reports`. Settlement cost fields count the bulk
            operations this round needed (E6): one request plus one reply
            per ISP, plus one comparison per pair.
        """
        for isp_id in credit_reports:
            self._check_member(isp_id)
        n = len(credit_reports)
        inconsistent = verify_credit_matrix(credit_reports)
        report = ReconciliationReport(
            round_seq=self._seq,
            isps_polled=n,
            pairs_checked=n * (n - 1) // 2,
            inconsistent=inconsistent,
            suspects=infer_suspects(inconsistent),
            settlement_operations=2 * n + n * (n - 1) // 2,
            settlement_bytes=sum(
                4 * (len(arr) + 1) for arr in credit_reports.values()
            ),
        )
        self.reports.append(report)
        self._seq += 1
        return report
