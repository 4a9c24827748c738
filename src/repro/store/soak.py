"""Continuous soak: a durable deployment vs. an in-memory oracle.

The recovery-equivalence differential at the heart of the durable
store's correctness argument. One seeded scenario — days of virtual
traffic, an overload flood, periodic reconciliation, scheduled
crash/restart cycles — runs twice:

* **durable** — the crash controller commits crashed nodes' state,
  reliable-endpoint queues and admission queues to the SQLite file
  store, so every restart rebuilds the node from *disk only*. Barrier
  commits run on a timer, and at every commit cut the run restores a
  complete second network from the store and asserts its durable
  digest equals the live one.
* **oracle** — the identical scenario with the crash controller's
  default in-memory store and no network commits. Same commit-cut timer
  cadence (digest-only, no disk), so the two engines process the same
  event schedule.

If the store round-trips state exactly, the two runs are
*byte-identical*: their :class:`~repro.obs.manifest.RunManifest`
documents — event multiset digest (store bookkeeping events excluded),
filtered metrics digest, cut-digest chain, invariant-monitor verdicts —
compare equal with ``cmp``. Any lossy encoding, missed dirty page or
ordering leak shows up as a manifest mismatch or a failed cut.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..chaos.crash import CrashController, CrashEvent
from ..chaos.deployment import ChaosDeployment
from ..chaos.faults import FaultSpec, FloodSpec, flood_requests
from ..core.overload import OverloadConfig
from ..errors import SimulationError
from ..obs.manifest import RunManifest, config_digest
from ..obs.metrics_export import METRICS_FORMAT_VERSION, export_deployment
from ..obs.schema import STORE_EVENT_TYPES
from ..obs.trace import AdditiveMultisetDigest, DigestSink, TraceRecorder
from ..sim.clock import DAY
from ..sim.rng import SeededStreams, derive_seed
from ..sim.workload import NormalUserWorkload, merge_workloads
from .backend import DurableStore
from .network import (
    attach_tracker,
    commit_network,
    durable_digest,
    init_store,
    restore_network,
)

__all__ = ["SoakSpec", "run_soak", "STORE_EVENT_TYPES"]



@dataclass(frozen=True)
class SoakSpec:
    """One seeded soak scenario (deployment + workload + fault schedule)."""

    seed: int = 7
    n_isps: int = 3
    users_per_isp: int = 6
    days: float = 1.0
    rate_per_day: float = 2000.0
    commit_interval: float = 3600.0
    monitor_interval: float = 5.0
    reconcile_every: float = 300.0
    drain_window: float = 1800.0
    crash_nodes: tuple[str, ...] = ("isp1", "bank")
    crash_down_for: float = 60.0
    flood_rate_per_sec: float = 20.0
    flood_duration: float = 120.0
    overload: OverloadConfig | None = field(
        default_factory=lambda: OverloadConfig(
            admit_rate=10.0,
            admit_burst=20,
            queue_capacity=64,
            retry_base=2.0,
            retry_backoff=2.0,
            retry_max_interval=30.0,
            max_retries=3,
        )
    )
    faults: FaultSpec | None = field(
        default_factory=lambda: FaultSpec(
            drop_rate=0.05, duplicate_rate=0.05, reorder_rate=0.05
        )
    )

    @property
    def duration(self) -> float:
        return self.days * DAY

    def crash_plan(self) -> list[CrashEvent]:
        """Evenly spaced crash/restart cycles across the workload phase."""
        events = []
        n = len(self.crash_nodes)
        for index, node in enumerate(self.crash_nodes):
            events.append(
                CrashEvent(
                    node=node,
                    at=self.duration * (index + 1) / (n + 1),
                    down_for=self.crash_down_for,
                )
            )
        return events


def _build_deployment(spec: SoakSpec, tracer: TraceRecorder) -> ChaosDeployment:
    return ChaosDeployment(
        n_isps=spec.n_isps,
        users_per_isp=spec.users_per_isp,
        seed=spec.seed,
        faults=spec.faults,
        monitor_interval=spec.monitor_interval,
        reconcile_every=spec.reconcile_every,
        overload=spec.overload,
        tracer=tracer,
    )


def _requests(spec: SoakSpec, deployment: ChaosDeployment):
    workload = NormalUserWorkload(
        n_isps=spec.n_isps,
        users_per_isp=spec.users_per_isp,
        streams=SeededStreams(derive_seed(deployment.seed, "chaos-workload")),
        rate_per_day=spec.rate_per_day,
    )
    requests = workload.generate(spec.duration)
    if spec.flood_rate_per_sec > 0 and spec.n_isps >= 2:
        flood = FloodSpec(
            attacker_isp=0,
            target_isp=1,
            rate_per_sec=spec.flood_rate_per_sec,
            start=spec.duration * 0.25,
            duration=spec.flood_duration,
        )
        requests = merge_workloads(
            requests,
            flood_requests(
                flood,
                n_isps=spec.n_isps,
                users_per_isp=spec.users_per_isp,
                streams=SeededStreams(derive_seed(deployment.seed, "flood:0")),
                name="flood0",
            ),
        )
    return requests


def _filtered_metrics_digest(deployment: ChaosDeployment) -> str:
    """The metrics-export digest minus durable-mode-only counters."""
    import hashlib

    flat = export_deployment(deployment).collect()
    filtered = {
        name: value
        for name, value in flat.items()
        if not name.startswith("zmail.store.")
    }
    canonical = json.dumps(
        {
            "format_version": METRICS_FORMAT_VERSION,
            "metrics": {name: filtered[name] for name in sorted(filtered)},
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_soak(
    spec: SoakSpec,
    *,
    store_path: str | None = None,
    manifest_path: str | None = None,
) -> dict[str, Any]:
    """Run one soak scenario; durable iff ``store_path`` is given.

    Returns the report dict (manifest, cut results, stats, verdict) and
    writes the manifest's canonical byte form to ``manifest_path`` when
    given — the file CI compares between durable and oracle runs with
    ``cmp``.

    Raises:
        SimulationError: the moment any commit cut's restored-from-disk
            digest diverges from the live network (durable mode only).
    """
    accumulator = AdditiveMultisetDigest(exclude_types=STORE_EVENT_TYPES)
    tracer = TraceRecorder(sink=DigestSink(accumulator))
    deployment = _build_deployment(spec, tracer)
    network = deployment.network

    store: DurableStore | None = None
    cuts: list[str] = []
    barriers = [0]
    if store_path is not None:
        store = DurableStore.create(store_path)
        init_store(store, network)
        tracker = attach_tracker(network)
        deployment.crash_controller = CrashController(deployment, store)

        def commit_cut() -> None:
            barriers[0] += 1
            commit_network(store, network, tracker, barrier=barriers[0])
            live = durable_digest(network)
            restored = durable_digest(restore_network(store))
            if restored != live:
                raise SimulationError(
                    f"recovery-equivalence violated at barrier {barriers[0]}: "
                    f"restored {restored[:16]} != live {live[:16]}"
                )
            cuts.append(live)

    else:

        def commit_cut() -> None:
            barriers[0] += 1
            cuts.append(durable_digest(network))

    for event in spec.crash_plan():
        deployment.schedule_crash(event)
    commit_handle = deployment.engine.schedule_every(
        spec.commit_interval, commit_cut, label="store-commit"
    )
    converged = deployment.run(
        _requests(spec, deployment),
        until=spec.duration,
        drain_window=spec.drain_window,
    )
    commit_handle.cancel()
    commit_cut()  # final cut at quiescence

    stats = deployment.stats()
    conserved = network.total_value() == network.expected_total_value()
    passed = (
        converged
        and conserved
        and stats["violations"] == 0
        and stats["overload_violations"] == 0
    )
    manifest = RunManifest(
        seed=spec.seed,
        config_digest=config_digest(network.config),
        event_count=accumulator.count,
        event_digest=accumulator.digest(),
        metrics_digest=_filtered_metrics_digest(deployment),
        extra={
            "scenario": "store-soak",
            "days": spec.days,
            "n_isps": spec.n_isps,
            "users_per_isp": spec.users_per_isp,
            "cuts": len(cuts),
            "cut_chain": _chain_digest(cuts),
            "crashes": stats["crashes"],
            "restarts": stats["restarts"],
            "converged": converged,
            "conserved": conserved,
            "violations": stats["violations"],
            "overload_violations": stats["overload_violations"],
        },
    )
    if manifest_path is not None:
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(manifest.to_json())
    report = {
        "mode": "durable" if store is not None else "oracle",
        "passed": passed,
        "converged": converged,
        "conserved": conserved,
        "cuts": len(cuts),
        "final_digest": cuts[-1],
        "manifest": manifest.to_dict(),
        "stats": stats,
    }
    if store is not None:
        report["store_records"] = store.verify()
        report["store_barrier"] = store.barrier
        store.close()
    return report


def _chain_digest(cuts: list[str]) -> str:
    """One hex digest pinning the whole ordered sequence of cut digests."""
    import hashlib

    return hashlib.sha256("\n".join(cuts).encode("ascii")).hexdigest()
