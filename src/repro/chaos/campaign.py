"""Chaos cells: one scenario document's world under faults, with a verdict.

:func:`deploy` builds a document's :class:`~repro.chaos.deployment
.ChaosDeployment` and its traffic; chaos cells and the store soak
(:mod:`repro.store.soak`) both start from it.

:func:`run_cell` runs a chaos document (``repro run doc.yaml --mode
chaos``; the built-in cells are ``examples/scenarios/chaos-*.yaml`` and
``overload-*.yaml``) in a fresh deployment, drains it to quiescence and
returns its report row. The row **passes** when the cell converged, kept
every invariant monitor green, conserved total value, and committed
every reconciliation round it started. The cell's seed derives from the
document's seed and cell name (SHA-256) and rows carry no wall-clock
time, so the same document gives byte-identical rows and a failing row
names the seed replaying it.
"""

from __future__ import annotations

from typing import Any

from ..core.overload import OverloadConfig
from ..obs.metrics_export import export_deployment
from ..sim.rng import SeededStreams, derive_seed
from ..sim.workload import merge_workloads
from .crash import CrashController, CrashEvent
from .deployment import ChaosDeployment
from .faults import FaultSpec

__all__ = ["deploy", "run_cell"]


def deploy(plan, *, seed: int, tracer=None, store=None):
    """Build a chaos document's deployment and its traffic.

    Returns ``(deployment, requests)``: a fresh :class:`ChaosDeployment`
    with the document's spammers funded and crashes scheduled, and the
    document's traffic — every term the other drives run, cut at the
    horizon (:meth:`~repro.core.scenario.Scenario.workload_streams`) —
    merged, ready for ``deployment.run``. Every RNG stream derives from
    ``seed``.

    Args:
        plan: A :class:`~repro.scenario.compiler.ScenarioPlan`.
        seed: Root seed of the deployment and its traffic.
        tracer: Optional :class:`~repro.obs.trace.TraceRecorder`.
        store: Optional :class:`~repro.store.backend.DurableStore`;
            crashed nodes' records go there instead of to memory. It is
            installed before the crashes are scheduled, which bind to
            the controller current at that moment.
    """
    doc = plan.doc
    scenario = plan.scenario("direct")
    overload = dict(doc["overload"])
    deployment = ChaosDeployment(
        n_isps=scenario.n_isps,
        users_per_isp=scenario.users_per_isp,
        seed=seed,
        compliant=scenario.compliant,
        config=scenario.config,
        faults=FaultSpec(**doc["faults"]),
        monitor_interval=doc["chaos"]["monitor_interval"],
        reconcile_every=scenario.reconcile_every,
        overload=OverloadConfig(**overload) if overload.pop("enabled") else None,
        tracer=tracer,
    )
    scenario.fund_spammers(deployment.network)
    if store is not None:
        deployment.crash_controller = CrashController(deployment, store)
    # In time order, so a restart fires before a crash of the same node
    # at the same instant (the schema lets windows touch).
    for crash in sorted(doc["crashes"], key=lambda crash: crash["at"]):
        deployment.schedule_crash(CrashEvent(**crash))
    streams = SeededStreams(derive_seed(seed, "chaos-workload"))
    return deployment, merge_workloads(*scenario.workload_streams(streams))


def run_cell(plan) -> dict[str, Any]:
    """Run a compiled chaos document in a fresh deployment; returns its row.

    Args:
        plan: A :class:`~repro.scenario.compiler.ScenarioPlan`. Its
            ``chaos.cell`` names the cell (default: the document name).
    """
    doc = plan.doc
    name = doc["chaos"]["cell"] or doc["name"]
    cell_seed = derive_seed(plan.seed, f"cell:{name}")
    deployment, requests = deploy(plan, seed=cell_seed)
    converged = deployment.run(
        requests,
        until=doc["traffic"]["duration"],
        drain_window=doc["chaos"]["drain_window"],
    )

    network = deployment.network
    stats = deployment.stats()
    # All counter reads go through the unified exporter so the chaos
    # drive exercises the same metrics surface `repro run --metrics` dumps.
    metrics = export_deployment(deployment).collect()
    conserved = network.total_value() == network.expected_total_value()
    first = deployment.monitor.first_violation
    first_overload = deployment.overload_monitor.first_violation
    passed = (
        converged
        and conserved
        and stats["violations"] == 0
        and stats["overload_violations"] == 0
        and stats["snapshot_failed"] == 0
    )
    return {
        "cell": name,
        "seed": cell_seed,
        "passed": passed,
        "converged": converged,
        "conserved": conserved,
        "delivered": metrics["zmail.deliver.delivered"],
        "first_violation": str(first) if first is not None else None,
        "first_overload_violation": (
            str(first_overload) if first_overload is not None else None
        ),
        "digest": deployment.digest(),
        **stats,
    }
