"""Always-on invariant monitoring for chaos runs.

The Zmail economy has three load-bearing invariants (§4.4 and the
conservation audits in DESIGN.md):

* **anti-symmetry** — for every compliant pair ``(i, j)``,
  ``credit_i[j] + credit_j[i]`` equals the number of *paid letters
  currently in flight* between them (0 at quiescence). Each undelivered
  paid letter contributes exactly +1 to the pair sum (the sender counted
  it, the receiver has not), so the monitor adjusts by the deployment's
  per-pair in-flight ledger rather than waiting for quiescence.
* **conservation** — ``total_value() == expected_total_value()``: no
  e-penny or real penny is created or destroyed by faults, crashes or
  recovery.
* **non-negativity** — user purses, ISP pools and bank accounts never go
  below zero.

:class:`InvariantMonitor` checks all three on a periodic engine timer so
a violation is caught *during* the run, close to the action that caused
it, and reports the first-violation time together with the campaign seed
— enough to replay the exact failing run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.events import EventHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .deployment import ChaosDeployment

__all__ = [
    "Violation",
    "InvariantMonitor",
    "OverloadMonitor",
]

#: Cap on recorded violations per run; a broken invariant usually fails
#: every subsequent check, and the first few carry all the signal.
MAX_RECORDED = 25


@dataclass(frozen=True)
class Violation:
    """One invariant breach observed at a point in virtual time."""

    time: float
    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"t={self.time:.3f} {self.invariant}: {self.detail}"


class InvariantMonitor:
    """Periodic invariant checker hooked into a chaos deployment's engine.

    Args:
        deployment: The deployment under test (provides the Zmail network
            and the per-pair in-flight ledger).
        interval: Virtual seconds between checks.
    """

    def __init__(self, deployment: "ChaosDeployment", *, interval: float = 5.0) -> None:
        self.deployment = deployment
        self.interval = interval
        self.checks_run = 0
        self.violations: list[Violation] = []
        self.violations_seen = 0
        self.first_violation: Violation | None = None
        self._handle: EventHandle | None = None

    def start(self) -> None:
        """Arm the periodic check on the deployment's engine."""
        if self._handle is not None:
            return
        self._handle = self.deployment.engine.schedule_every(
            self.interval, self.check, label="chaos-monitor"
        )

    def stop(self) -> None:
        """Cancel the periodic check."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def green(self) -> bool:
        """Whether no invariant has been violated so far."""
        return self.violations_seen == 0

    def check(self) -> list[Violation]:
        """Run all invariant checks now; record and return violations."""
        self.checks_run += 1
        found = self._violations_now()
        tracer = self.deployment.tracer
        for violation in found:
            self.violations_seen += 1
            if tracer.enabled:
                tracer.emit(
                    "monitor.violation",
                    monitor="invariant",
                    kind=violation.invariant,
                )
            if self.first_violation is None:
                self.first_violation = violation
            if len(self.violations) < MAX_RECORDED:
                self.violations.append(violation)
        return found

    # -- the invariants ---------------------------------------------------------

    def _violations_now(self) -> list[Violation]:
        deployment = self.deployment
        network = deployment.network
        now = deployment.engine.now
        found: list[Violation] = []

        compliant = network.compliant_isps()
        ids = sorted(compliant)
        for index, i in enumerate(ids):
            credit_i = compliant[i].credit
            for j in ids[index + 1 :]:
                pair_sum = credit_i.get(j, 0) + compliant[j].credit.get(i, 0)
                expected = deployment.inflight_pair(i, j)
                if pair_sum != expected:
                    found.append(Violation(
                        now,
                        "anti-symmetry",
                        f"credit[{i}][{j}] + credit[{j}][{i}] = {pair_sum}, "
                        f"expected {expected} (paid letters in flight)",
                    ))

        total = network.total_value()
        expected_total = network.expected_total_value()
        if total != expected_total:
            found.append(Violation(
                now,
                "conservation",
                f"total_value {total} != expected {expected_total} "
                f"(delta {total - expected_total})",
            ))

        for isp_id, isp in sorted(compliant.items()):
            if isp.ledger.pool < 0:
                found.append(Violation(
                    now, "non-negativity", f"isp{isp_id} pool {isp.ledger.pool}"
                ))
            bank_account = network.bank.account_balance(isp_id)
            if bank_account < 0:
                found.append(Violation(
                    now, "non-negativity", f"isp{isp_id} bank account {bank_account}"
                ))
            # A pristine user holds the genesis template, which the
            # config keeps non-negative; checking it would materialise it.
            for user in isp.ledger.materialized_users():
                if user.balance < 0 or user.account < 0:
                    found.append(Violation(
                        now,
                        "non-negativity",
                        f"isp{isp_id} user{user.user_id} balance="
                        f"{user.balance} account={user.account}",
                    ))
        return found


class OverloadMonitor:
    """Bounded-memory + no-lost-accounting checks for the overload layer.

    Two invariants, checked on the same periodic cadence as
    :class:`InvariantMonitor`:

    * **bounded memory** — each ISP's deferred queue (live size *and*
      high-water mark) never exceeds its configured capacity, and the
      shed audit ring never exceeds its cap: a flood cannot make an ISP
      allocate without limit.
    * **no lost accounting** — per controller,
      ``attempts == accepted + shed + bounced + pending``: every message
      that asked for admission is accounted for exactly once — processed,
      refused, terminally bounced, or still queued. Combined with the
      conservation check (shed/deferred outcomes never touch a ledger)
      this is the "every admitted message is eventually delivered or
      bounced" guarantee.

    Does nothing (and stays green) when the deployment runs without an
    :class:`~repro.core.overload.OverloadConfig`.
    """

    def __init__(self, deployment: "ChaosDeployment", *, interval: float = 5.0) -> None:
        self.deployment = deployment
        self.interval = interval
        self.checks_run = 0
        self.violations: list[Violation] = []
        self.violations_seen = 0
        self.first_violation: Violation | None = None
        self._handle: EventHandle | None = None

    def start(self) -> None:
        """Arm the periodic check on the deployment's engine."""
        if self._handle is not None:
            return
        self._handle = self.deployment.engine.schedule_every(
            self.interval, self.check, label="overload-monitor"
        )

    def stop(self) -> None:
        """Cancel the periodic check."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def green(self) -> bool:
        """Whether no overload invariant has been violated so far."""
        return self.violations_seen == 0

    def check(self) -> list[Violation]:
        """Run both overload checks now; record and return violations."""
        self.checks_run += 1
        found = self._violations_now()
        tracer = self.deployment.tracer
        for violation in found:
            self.violations_seen += 1
            if tracer.enabled:
                tracer.emit(
                    "monitor.violation",
                    monitor="overload",
                    kind=violation.invariant,
                )
            if self.first_violation is None:
                self.first_violation = violation
            if len(self.violations) < MAX_RECORDED:
                self.violations.append(violation)
        return found

    def _violations_now(self) -> list[Violation]:
        network = self.deployment.network
        now = self.deployment.engine.now
        found: list[Violation] = []
        for isp_id, controller in sorted(
            network.overload_controllers().items()
        ):
            capacity = controller.queue.capacity
            if controller.pending > capacity or controller.peak_pending > capacity:
                found.append(Violation(
                    now,
                    "bounded-memory",
                    f"isp{isp_id} deferred queue {controller.pending} "
                    f"(peak {controller.peak_pending}) over capacity {capacity}",
                ))
            if len(controller.audit.records) > controller.audit.cap:
                found.append(Violation(
                    now,
                    "bounded-memory",
                    f"isp{isp_id} shed audit {len(controller.audit.records)} "
                    f"over cap {controller.audit.cap}",
                ))
            delta = controller.accounting_delta()
            if delta != 0:
                found.append(Violation(
                    now,
                    "no-lost-accounting",
                    f"isp{isp_id} attempts {controller.attempts} != "
                    f"accepted {controller.accepted} + shed {controller.shed} "
                    f"+ bounced {controller.bounced} + pending "
                    f"{controller.pending} (delta {delta})",
                ))
        return found
