"""Lowering scenario documents onto every executor the library has.

:func:`compile_scenario` turns a validated document into a
:class:`ScenarioPlan` — a frozen view of the world that can emit, on
demand, each executor's native spec: a :class:`~repro.core.scenario
.Scenario` for the direct loop and the columnar batch executor; a
:class:`~repro.cluster.runtime.ClusterConfig` for the sharded runtime;
and, through :func:`repro.chaos.campaign.run_cell`, a fault-injecting
chaos cell. One document, four drives, zero hand-rolled spec objects.

:func:`run_plan` executes a plan on a chosen drive and distils the run
into the **cross-executor invariant manifest**: the additive multiset of
ledger facts (``send``/``deliver``/``topup``/``bank.trade``, timestamps
and sequence numbers stripped — ``reconcile`` rows are excluded because
the cluster takes its cuts through snapshots and never emits them), the
``zmail`` metrics digest, and the accounting digest over every balance
in the cluster's shard-mergeable shape. For the same document these
bytes must be identical on ``direct``, ``columnar`` and ``cluster`` —
that equality is the fuzzing oracle of
:mod:`repro.scenario.fuzz`. The chaos drive is the exception by design:
it runs the same traffic under faults and drains to quiescence, so it
reports a campaign row instead of an invariant manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.config import NonCompliantMailPolicy, ZmailConfig
from ..core.scenario import Scenario, SpammerSpec, ZombieSpec
from ..errors import SimulationError
# ``_invariant_accounting`` stays a module-level name here: perfbench's
# manifest.build layer wraps it by that name.
from ..obs.manifest import (
    RunManifest,
    config_digest,
    invariant_accounting as _invariant_accounting,
    invariant_accounting_digest,
)
from ..obs.metrics_export import MetricsExporter
from ..obs.trace import AdditiveMultisetDigest, DigestSink, TraceRecorder
from ..sim.workload import Address, FloodSpec
from .schema import load, scenario_digest, validate

__all__ = [
    "PLAN_MODES",
    "INVARIANT_EVENT_TYPES",
    "ScenarioPlan",
    "compile_scenario",
    "run_plan",
]

#: Drives a plan can run on. The first three must agree byte-for-byte on
#: the invariant manifest; ``chaos`` reports a campaign row instead.
PLAN_MODES = ("direct", "columnar", "cluster", "chaos")

#: Ledger facts every executor must agree on. ``reconcile`` is absent on
#: purpose: cluster workers take §4.4 cuts via snapshot control messages
#: and never emit reconcile trace events, so including it would make the
#: oracle trivially red on every clustered run.
INVARIANT_EVENT_TYPES = frozenset({"send", "deliver", "topup", "bank.trade"})


@dataclass(frozen=True)
class ScenarioPlan:
    """A compiled scenario: canonical document + executor lowerings."""

    doc: dict[str, Any] = field(repr=False)
    digest: str
    # Lowering cache (strategies-docs only): the arena pilot match that
    # resolves a strategy pair into a concrete traffic schedule runs
    # once per plan, not once per executor. Excluded from equality so
    # two plans over the same document still compare equal.
    _cache: dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        return self.doc["name"]

    @property
    def seed(self) -> int:
        return self.doc["seed"]

    def config(self) -> ZmailConfig:
        economics = dict(self.doc["economics"])
        economics["noncompliant_policy"] = NonCompliantMailPolicy(
            economics["noncompliant_policy"]
        )
        return ZmailConfig(**economics)

    def compliant_flags(self) -> list[bool] | None:
        topo = self.doc["topology"]
        if not topo["noncompliant"]:
            return None
        bad = set(topo["noncompliant"])
        return [isp not in bad for isp in range(topo["n_isps"])]

    def lowered(self) -> "ScenarioPlan":
        """This plan with any ``strategies`` term resolved into traffic.

        Plain documents return ``self``. For strategies-docs (schema v2,
        ``strategies`` present) a pilot match on the direct reference
        path resolves the attacker/defender pair into its deterministic
        per-period send schedule, which is lowered to plain
        spammer/zombie traffic terms — so strategy worlds run on every
        executor through the ordinary plan machinery. The pilot runs at
        most once per plan (cached).
        """
        if self.doc.get("strategies") is None:
            return self
        cached = self._cache.get("lowered")
        if cached is None:
            from ..arena.lower import lower_plan

            cached = self._cache["lowered"] = lower_plan(self)
        return cached

    def scenario(self, mode: str = "direct") -> Scenario:
        """The document as a :class:`~repro.core.scenario.Scenario`.

        ``mode`` points the scenario at an executor: ``direct`` (also
        the base for the cluster's shard workers) or ``columnar``.
        Strategy worlds lower first (see :meth:`lowered`).
        """
        if self.doc.get("strategies") is not None:
            return self.lowered().scenario(mode)
        doc = self.doc
        topo, traffic = doc["topology"], doc["traffic"]
        return Scenario(
            n_isps=topo["n_isps"],
            users_per_isp=topo["users_per_isp"],
            compliant=self.compliant_flags(),
            config=self.config(),
            seed=doc["seed"],
            duration=traffic["duration"],
            normal_rate_per_day=traffic["normal_rate_per_day"],
            spammers=[
                SpammerSpec(
                    address=Address(s["isp"], s["user"]),
                    volume=s["volume"],
                    war_chest=s["war_chest"],
                    start=s["start"],
                    duration=s["duration"],
                )
                for s in traffic["spammers"]
            ],
            zombies=[
                ZombieSpec(
                    address=Address(z["isp"], z["user"]),
                    rate_per_hour=z["rate_per_hour"],
                    start=z["start"],
                    end=z["end"],
                )
                for z in traffic["zombies"]
            ],
            floods=[
                FloodSpec(
                    attacker_isp=f["attacker_isp"],
                    target_isp=f["target_isp"],
                    rate_per_sec=f["rate_per_sec"],
                    start=f["start"],
                    duration=f["duration"],
                    attackers=f["attackers"],
                    kind=f["kind"],
                )
                for f in traffic["floods"]
            ],
            reconcile_every=doc["reconcile"]["every"],
            mode=mode,
        )

    def cluster_config(
        self,
        *,
        shards: int | None = None,
        mode: str = "inline",
    ):
        """The document as a :class:`~repro.cluster.runtime.ClusterConfig`."""
        from ..cluster.runtime import ClusterConfig

        cluster = self.doc["cluster"]
        return ClusterConfig(
            scenario=self.scenario("direct"),
            n_shards=cluster["shards"] if shards is None else shards,
            epoch_len=cluster["epoch"],
            mode=mode,
        )


def compile_scenario(source: dict[str, Any] | str) -> ScenarioPlan:
    """Compile a document (or a path to one) into a :class:`ScenarioPlan`."""
    doc = load(source) if isinstance(source, str) else validate(source)
    return ScenarioPlan(doc=doc, digest=scenario_digest(doc))


# -- invariant manifest ------------------------------------------------------


def _manifest(
    plan: ScenarioPlan,
    *,
    ledger_count: int,
    ledger_digest: str,
    metrics_digest: str,
    accounting: dict[str, Any],
    sends_attempted: int,
    zombies_detected: int,
) -> RunManifest:
    doc = plan.doc
    conserved = accounting["total_value"] == accounting["expected_total_value"]
    return RunManifest(
        seed=plan.seed,
        config_digest=config_digest(plan.config()),
        event_count=ledger_count,
        event_digest=ledger_digest,
        metrics_digest=metrics_digest,
        extra={
            # Executor-invariant facts only: nothing here may depend on
            # which drive ran the world — these bytes are the fuzzing
            # oracle compared across direct/columnar/cluster.
            "runtime": "scenario",
            "scenario": plan.name,
            "scenario_digest": plan.digest,
            "schema_version": doc["schema_version"],
            "n_isps": doc["topology"]["n_isps"],
            "users_per_isp": doc["topology"]["users_per_isp"],
            "duration": doc["traffic"]["duration"],
            "reconcile_every": doc["reconcile"]["every"],
            "sends_attempted": sends_attempted,
            "accounting_digest": invariant_accounting_digest(accounting),
            "total_value": accounting["total_value"],
            "expected_total_value": accounting["expected_total_value"],
            "conserved": conserved,
            "zombies_detected": zombies_detected,
        },
    )


def _run_single(plan: ScenarioPlan, mode: str) -> dict[str, Any]:
    ledger_acc = AdditiveMultisetDigest(include_types=INVARIANT_EVENT_TYPES)
    recorder = TraceRecorder(sink=DigestSink(ledger_acc))
    scenario = plan.scenario(mode)
    scenario.tracer = recorder
    result = scenario.run()
    network = result.network
    exporter = MetricsExporter()
    exporter.add_static("zmail", network.metrics.snapshot()["counters"])
    accounting = _invariant_accounting(network)
    manifest = _manifest(
        plan,
        ledger_count=ledger_acc.count,
        ledger_digest=ledger_acc.digest(),
        metrics_digest=exporter.digest(),
        accounting=accounting,
        sends_attempted=result.sends_attempted,
        zombies_detected=len(result.zombie_detections),
    )
    return {
        "mode": mode,
        "manifest": manifest,
        "report": {
            **result.summary(),
            "cut_digests": list(result.cut_digests),
        },
    }


def _run_cluster(
    plan: ScenarioPlan,
    *,
    shards: int | None,
    cluster_mode: str,
) -> dict[str, Any]:
    from ..cluster.runtime import run_cluster

    config = plan.cluster_config(shards=shards, mode=cluster_mode)
    # The manifest below reads the ledger digest, never the timestamped
    # full-event one, so the workers need not compute it.
    config.traced = False
    result = run_cluster(config)
    extra = result.manifest.extra
    manifest = _manifest(
        plan,
        ledger_count=extra["ledger_event_count"],
        ledger_digest=extra["ledger_digest"],
        metrics_digest=result.manifest.metrics_digest,
        accounting=dict(result.accounting),
        sends_attempted=extra["sends_attempted"],
        zombies_detected=len(result.detections),
    )
    return {"mode": "cluster", "manifest": manifest, "report": result.report}


def _run_chaos(plan: ScenarioPlan) -> dict[str, Any]:
    from ..chaos.campaign import run_cell

    return {"mode": "chaos", "manifest": None, "report": run_cell(plan)}


def run_plan(
    plan: ScenarioPlan,
    mode: str = "direct",
    *,
    shards: int | None = None,
    cluster_mode: str = "inline",
) -> dict[str, Any]:
    """Execute ``plan`` on one drive.

    Returns ``{"mode", "manifest", "report"}`` where ``manifest`` is the
    cross-executor invariant :class:`RunManifest` (``None`` for the
    chaos drive, which reports its campaign row instead).
    """
    if mode in ("direct", "columnar"):
        return _run_single(plan, mode)
    if mode == "cluster":
        return _run_cluster(plan, shards=shards, cluster_mode=cluster_mode)
    if mode == "chaos":
        return _run_chaos(plan)
    raise SimulationError(
        f"unknown plan mode {mode!r}; expected one of {PLAN_MODES}"
    )
