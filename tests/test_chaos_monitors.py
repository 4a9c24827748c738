"""The chaos monitors fire: each invariant, broken in a live deployment.

Every chaos and overload gate reads ``violations == 0``; that gate is
only worth something if a monitor records a breach when one happens.
Each test runs a built-in cell with one perturbation scheduled on the
deployment's engine, at a monitor-check instant, and asserts that the
breach is recorded under its invariant's name and traced, that the
monitor keeps the first violation, and that the cell row fails.
"""

import pytest

from conftest import load_plan
from repro.chaos import campaign, run_cell
from repro.chaos.monitors import MAX_RECORDED
from repro.obs.trace import ListSink, TraceRecorder

#: Every built-in cell checks its monitors every 5 s; the perturbation
#: lands on the check at this instant.
AT = 100.0


def perturbed_cell(monkeypatch, document, perturb):
    """``document``'s cell row, traced, with ``perturb(deployment)``
    applied at ``AT``; returns ``(row, deployment, traced violation
    kinds)``."""
    deploy = campaign.deploy
    live = []
    sink = ListSink()

    def deploy_perturbed(plan, **kwargs):
        deployment, requests = deploy(
            plan, tracer=TraceRecorder(sink=sink), **kwargs
        )
        deployment.engine.schedule_at(AT, lambda: perturb(deployment))
        live.append(deployment)
        return deployment, requests

    monkeypatch.setattr(campaign, "deploy", deploy_perturbed)
    row = run_cell(load_plan(document))
    traced = {
        event["kind"]
        for event in sink.events()
        if event["type"] == "monitor.violation"
    }
    return row, live[0], traced


def unbalance_credit(deployment):
    isp = deployment.network.compliant_isps()[0]
    isp.credit[1] = isp.credit.get(1, 0) + 1


def mint_epenny(deployment):
    deployment.network.compliant_isps()[0].ledger.user(0).balance += 1


# The negativity perturbations move value rather than mint it, so only
# the sign is wrong.


def drive_pool_negative(deployment):
    ledger = deployment.network.compliant_isps()[0].ledger
    amount = ledger.pool + 1
    ledger.pool -= amount
    ledger.user(0).balance += amount


def drive_purse_negative(deployment):
    ledger = deployment.network.compliant_isps()[0].ledger
    amount = ledger.user(0).balance + 1
    ledger.user(0).balance -= amount
    ledger.pool += amount


def drive_bank_account_negative(deployment):
    accounts = deployment.network.bank._accounts
    amount = accounts[0] + 1
    accounts[0] -= amount
    accounts[1] += amount


def overfill_queue(deployment):
    queue = deployment.network.overload_controllers()[0].queue
    queue.peak_size = queue.capacity + 1


def overfill_audit(deployment):
    audit = deployment.network.overload_controllers()[0].audit
    audit.records.extend([None] * (audit.cap + 1))


def miscount_attempts(deployment):
    deployment.network.overload_controllers()[0].attempts += 1


class TestInvariantMonitorFires:
    @pytest.mark.parametrize(
        "perturb,invariant",
        [
            (unbalance_credit, "anti-symmetry"),
            (mint_epenny, "conservation"),
            (drive_pool_negative, "non-negativity"),
            (drive_purse_negative, "non-negativity"),
            (drive_bank_account_negative, "non-negativity"),
        ],
        ids=[
            "anti-symmetry", "conservation", "negative-pool",
            "negative-purse", "negative-bank-account",
        ],
    )
    def test_breach_is_recorded_and_fails_the_cell(
        self, monkeypatch, perturb, invariant
    ):
        row, deployment, traced = perturbed_cell(
            monkeypatch, "chaos-clean.yaml", perturb
        )
        monitor = deployment.monitor
        assert invariant in {v.invariant for v in monitor.violations}
        assert invariant in traced
        assert monitor.first_violation.invariant == invariant
        assert monitor.first_violation.time == AT
        assert row["violations"] == monitor.violations_seen > 0
        assert row["first_violation"] is not None
        assert row["passed"] is False


class TestOverloadMonitorFires:
    @pytest.mark.parametrize(
        "perturb,invariant",
        [
            (overfill_queue, "bounded-memory"),
            (overfill_audit, "bounded-memory"),
            (miscount_attempts, "no-lost-accounting"),
        ],
        ids=["queue-overfilled", "audit-overfilled", "attempts-miscounted"],
    )
    def test_breach_is_recorded_and_fails_the_cell(
        self, monkeypatch, perturb, invariant
    ):
        row, deployment, traced = perturbed_cell(
            monkeypatch, "overload-baseline.yaml", perturb
        )
        monitor = deployment.overload_monitor
        assert invariant in {v.invariant for v in monitor.violations}
        assert invariant in traced
        assert monitor.first_violation.invariant == invariant
        assert monitor.first_violation.time == AT
        assert row["overload_violations"] == monitor.violations_seen > 0
        assert row["first_overload_violation"] is not None
        assert row["passed"] is False

    def test_violations_past_the_cap_are_counted_not_kept(self, monkeypatch):
        _row, deployment, _traced = perturbed_cell(
            monkeypatch, "overload-baseline.yaml", miscount_attempts
        )
        monitor = deployment.overload_monitor
        assert monitor.violations_seen > len(monitor.violations)
        assert len(monitor.violations) == MAX_RECORDED
