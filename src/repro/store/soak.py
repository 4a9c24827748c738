"""Continuous soak: a durable deployment vs. an in-memory oracle.

The recovery-equivalence differential at the heart of the durable
store's correctness argument. One scenario document — virtual traffic,
an overload flood, periodic reconciliation, scheduled crash/restart
cycles; the built-in one is ``examples/scenarios/soak.yaml`` — runs
twice (``repro run soak.yaml --mode soak``, with and without
``--store PATH``):

* **durable** — the crash controller commits crashed nodes' state,
  reliable-endpoint queues and admission queues to the SQLite file
  store, so every restart rebuilds the node from *disk only*. Barrier
  commits run on a timer, and at every commit cut the run restores a
  complete second network from the store and asserts its durable
  digest equals the live one.
* **oracle** — the identical world with the crash controller's
  default in-memory store and no network commits. Same commit-cut timer
  cadence (digest-only, no disk), so the two engines process the same
  event schedule.

Both build their deployment with :func:`repro.chaos.campaign.deploy`,
as chaos cells do, seeded with the document's own seed. If
the store round-trips state exactly, the two runs are *byte-identical*:
their :class:`~repro.obs.manifest.RunManifest` documents — event
multiset digest (store bookkeeping events excluded), filtered metrics
digest, cut-digest chain, invariant-monitor verdicts — compare equal
with ``cmp``. Any lossy encoding, missed dirty page or ordering leak
shows up as a manifest mismatch or a failed cut.
"""

from __future__ import annotations

import json
from typing import Any

from ..chaos.campaign import deploy
from ..chaos.deployment import ChaosDeployment
from ..errors import SimulationError
from ..obs.manifest import RunManifest, config_digest
from ..obs.metrics_export import METRICS_FORMAT_VERSION, export_deployment
from ..obs.schema import STORE_EVENT_TYPES
from ..obs.trace import AdditiveMultisetDigest, DigestSink, TraceRecorder
from ..sim.clock import DAY
from .backend import DurableStore
from .network import (
    attach_tracker,
    commit_network,
    durable_digest,
    init_store,
    restore_network,
)

__all__ = ["run_soak", "STORE_EVENT_TYPES"]


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
    plan,
    *,
    store_path: str | None = None,
    commit_every: float = 3600.0,
) -> dict[str, Any]:
    """Soak a compiled document's world; durable iff ``store_path`` is given.

    Args:
        plan: A :class:`~repro.scenario.compiler.ScenarioPlan`.
        store_path: A store file to create (it must not exist); ``None``
            runs the in-memory oracle.
        commit_every: Seconds between commit cuts.

    Returns:
        The report dict: verdict, cut results, stats and, under
        ``"manifest"``, the :class:`RunManifest` whose canonical bytes
        (``to_json()``) the durable and oracle runs share.

    Raises:
        SimulationError: the moment any commit cut's restored-from-disk
            digest diverges from the live network (durable mode only).
    """
    if store_path is None:
        return _soak(plan, None, commit_every)
    with DurableStore.create(store_path) as store:
        return _soak(plan, store, commit_every)


def _soak(
    plan, store: DurableStore | None, commit_every: float
) -> dict[str, Any]:
    doc = plan.doc
    accumulator = AdditiveMultisetDigest(exclude_types=STORE_EVENT_TYPES)
    tracer = TraceRecorder(sink=DigestSink(accumulator))
    deployment, requests = deploy(
        plan, seed=plan.seed, tracer=tracer, store=store
    )
    network = deployment.network

    cuts: list[str] = []
    barriers = [0]
    if store is not None:
        init_store(store, network)
        tracker = attach_tracker(network)

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

    duration = doc["traffic"]["duration"]
    commit_handle = deployment.engine.schedule_every(
        commit_every, commit_cut, label="store-commit"
    )
    converged = deployment.run(
        requests, until=duration, drain_window=doc["chaos"]["drain_window"]
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
    topology = doc["topology"]
    manifest = RunManifest(
        seed=plan.seed,
        config_digest=config_digest(network.config),
        event_count=accumulator.count,
        event_digest=accumulator.digest(),
        metrics_digest=_filtered_metrics_digest(deployment),
        extra={
            "scenario": "store-soak",
            "days": duration / DAY,
            "n_isps": topology["n_isps"],
            "users_per_isp": topology["users_per_isp"],
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
    report = {
        "mode": "durable" if store is not None else "oracle",
        "passed": passed,
        "converged": converged,
        "conserved": conserved,
        "cuts": len(cuts),
        "final_digest": cuts[-1],
        "manifest": manifest,
        "stats": stats,
    }
    if store is not None:
        report["store_records"] = store.verify()
        report["store_barrier"] = store.barrier
    return report


def _chain_digest(cuts: list[str]) -> str:
    """One hex digest pinning the whole ordered sequence of cut digests."""
    import hashlib

    return hashlib.sha256("\n".join(cuts).encode("ascii")).hexdigest()
