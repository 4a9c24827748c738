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
from ..errors import SimulationError
from ..obs.metrics_export import export_deployment
from ..sim.rng import SeededStreams, derive_seed
from ..sim.workload import NormalUserWorkload, merge_workloads
from .crash import CrashController, CrashEvent
from .deployment import ChaosDeployment
from .faults import FaultSpec, FloodSpec, flood_requests

__all__ = ["deploy", "deploy_refusal", "run_cell"]


def deploy_refusal(plan) -> str | None:
    """Why :func:`deploy` refuses ``plan``, or ``None`` if it does not.

    The chaos drive lowers only normal traffic and floods, so a document
    with ``spammers``, ``zombies`` or ``strategies`` terms is refused
    rather than run without them.
    """
    traffic = plan.doc["traffic"]
    dropped = [term for term in ("spammers", "zombies") if traffic[term]]
    if plan.doc.get("strategies") is not None:
        dropped.append("strategies")
    if not dropped:
        return None
    return (
        f"scenario {plan.name}: the chaos drive runs only normal traffic "
        f"and floods; it cannot run the {', '.join(dropped)} term(s)"
    )


def deploy(plan, *, seed: int, tracer=None, store=None):
    """Build a chaos document's deployment and its traffic.

    Returns ``(deployment, requests)``: a fresh :class:`ChaosDeployment`
    with the document's crashes scheduled, and the normal workload
    merged with every flood, ready for ``deployment.run``. Every RNG
    stream derives from ``seed``. Raises
    :class:`~repro.errors.SimulationError` with the
    :func:`deploy_refusal` message for a document it cannot run.

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
    topology, traffic = doc["topology"], doc["traffic"]
    refusal = deploy_refusal(plan)
    if refusal is not None:
        raise SimulationError(refusal)
    n_isps, users_per_isp = topology["n_isps"], topology["users_per_isp"]
    overload = dict(doc["overload"])
    deployment = ChaosDeployment(
        n_isps=n_isps,
        users_per_isp=users_per_isp,
        seed=seed,
        compliant=plan.compliant_flags(),
        config=plan.config(),
        faults=FaultSpec(**doc["faults"]),
        monitor_interval=doc["chaos"]["monitor_interval"],
        reconcile_every=doc["reconcile"]["every"],
        overload=OverloadConfig(**overload) if overload.pop("enabled") else None,
        tracer=tracer,
    )
    if store is not None:
        deployment.crash_controller = CrashController(deployment, store)
    # In time order, so a restart fires before a crash of the same node
    # at the same instant (the schema lets windows touch).
    for crash in sorted(doc["crashes"], key=lambda crash: crash["at"]):
        deployment.schedule_crash(CrashEvent(**crash))
    workload = NormalUserWorkload(
        n_isps=n_isps,
        users_per_isp=users_per_isp,
        streams=SeededStreams(derive_seed(seed, "chaos-workload")),
        rate_per_day=traffic["normal_rate_per_day"],
    )
    requests = workload.generate(traffic["duration"])
    floods = [
        flood_requests(
            FloodSpec(**flood),
            n_isps=n_isps,
            users_per_isp=users_per_isp,
            streams=SeededStreams(derive_seed(seed, f"flood:{index}")),
            name=f"flood{index}",
        )
        for index, flood in enumerate(traffic["floods"])
    ]
    if floods:
        requests = merge_workloads(requests, *floods)
    return deployment, requests


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
