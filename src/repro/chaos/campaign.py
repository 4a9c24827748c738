"""Chaos cells: one scenario document's world under faults, with a verdict.

:func:`run_cell` runs a chaos document (``repro run doc.yaml --mode
chaos``; the built-in cells are ``examples/scenarios/chaos-*.yaml`` and
``overload-*.yaml``) in a fresh :class:`~repro.chaos.deployment
.ChaosDeployment`, drains it to quiescence and returns its report row.
The row **passes** when the cell converged, kept every invariant monitor
green, conserved total value, and committed every reconciliation round
it started. The cell's seed derives from the document's seed and cell
name (SHA-256) and rows carry no wall-clock time, so the same document
gives byte-identical rows and a failing row names the seed replaying it.
"""

from __future__ import annotations

from typing import Any

from ..core.overload import OverloadConfig
from ..obs.metrics_export import export_deployment
from ..sim.rng import SeededStreams, derive_seed
from ..sim.workload import NormalUserWorkload, merge_workloads
from .crash import CrashEvent
from .deployment import ChaosDeployment
from .faults import FaultSpec, FloodSpec, flood_requests

__all__ = ["run_cell"]


def run_cell(plan) -> dict[str, Any]:
    """Run a compiled chaos document in a fresh deployment; returns its row.

    Args:
        plan: A :class:`~repro.scenario.compiler.ScenarioPlan`. Its
            ``chaos.cell`` names the cell (default: the document name).
    """
    doc = plan.doc
    topology, traffic = doc["topology"], doc["traffic"]
    name = doc["chaos"]["cell"] or doc["name"]
    cell_seed = derive_seed(plan.seed, f"cell:{name}")
    overload = dict(doc["overload"])
    deployment = ChaosDeployment(
        n_isps=topology["n_isps"],
        users_per_isp=topology["users_per_isp"],
        seed=cell_seed,
        compliant=plan.compliant_flags(),
        config=plan.config(),
        faults=FaultSpec(**doc["faults"]),
        monitor_interval=doc["chaos"]["monitor_interval"],
        reconcile_every=doc["reconcile"]["every"],
        overload=OverloadConfig(**overload) if overload.pop("enabled") else None,
    )
    for crash in doc["crashes"]:
        deployment.schedule_crash(CrashEvent(**crash))
    duration = traffic["duration"]
    workload = NormalUserWorkload(
        n_isps=topology["n_isps"],
        users_per_isp=topology["users_per_isp"],
        streams=SeededStreams(derive_seed(cell_seed, "chaos-workload")),
        rate_per_day=traffic["normal_rate_per_day"],
    )
    requests = workload.generate(duration)
    floods = [
        flood_requests(
            FloodSpec(**flood),
            n_isps=topology["n_isps"],
            users_per_isp=topology["users_per_isp"],
            streams=SeededStreams(derive_seed(cell_seed, f"flood:{index}")),
            name=f"flood{index}",
        )
        for index, flood in enumerate(traffic["floods"])
    ]
    if floods:
        requests = merge_workloads(requests, *floods)
    converged = deployment.run(
        requests, until=duration, drain_window=doc["chaos"]["drain_window"]
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
