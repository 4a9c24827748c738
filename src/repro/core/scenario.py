"""Declarative scenario runner: whole simulations from one spec.

The benchmark harness and examples all follow the same shape — build a
deployment, merge workloads, schedule reconciliations and midnight work,
run, audit, summarise. :class:`Scenario` captures that shape as data so a
downstream user writes::

    scenario = Scenario(
        n_isps=4, users_per_isp=20,
        duration=10 * DAY,
        normal_rate_per_day=8.0,
        spammers=[SpammerSpec(Address(3, 0), volume=5000, war_chest=100)],
        zombies=[ZombieSpec(Address(1, 7), rate_per_hour=200.0,
                            start=DAY, end=2 * DAY)],
        reconcile_every=5 * DAY,
    )
    result = scenario.run()

and gets a :class:`ScenarioResult` with message accounting, per-class
delivery, detection outcomes, reconciliation reports and the conservation
audit — everything EXPERIMENTS.md tables are made of.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..obs.manifest import accounting_digest
from ..sim.clock import DAY
from ..sim.rng import SeededStreams
from ..sim.workload import (
    Address,
    FloodSpec,
    FloodWorkload,
    NormalUserWorkload,
    SpamCampaignWorkload,
    TrafficKind,
    ZombieBurstWorkload,
    merge_workloads,
)
from .config import ZmailConfig
from .misbehavior import ReconciliationReport
from .protocol import ZmailNetwork
from .zombie import ZombieDetection, ZombieMonitor

__all__ = ["SpammerSpec", "ZombieSpec", "Scenario", "ScenarioResult"]


@dataclass(frozen=True)
class SpammerSpec:
    """One spam campaign in a scenario."""

    address: Address
    volume: int
    war_chest: int = 0  # e-pennies granted up front
    start: float = 0.0
    duration: float = DAY


@dataclass(frozen=True)
class ZombieSpec:
    """One zombie outbreak in a scenario."""

    address: Address
    rate_per_hour: float
    start: float
    end: float


@dataclass
class ScenarioResult:
    """Everything a scenario run produced."""

    network: ZmailNetwork
    duration: float
    sends_attempted: int
    delivered: int
    blocked_balance: int
    blocked_limit: int
    junked: int
    discarded: int
    spam_delivered: int
    zombie_detections: list[ZombieDetection]
    reconciliations: list[ReconciliationReport]
    conserved: bool
    # Accounting digest after every reconciliation cut (direct and
    # columnar modes; empty in engine modes, whose midnight/reconcile
    # ordering at a shared boundary legitimately differs mid-cut). Kept
    # out of summary() so engine-mode summaries stay mode-invariant.
    cut_digests: list[str] = field(default_factory=list)

    @property
    def all_reconciliations_consistent(self) -> bool:
        """Whether every §4.4 round verified cleanly."""
        return all(r.consistent for r in self.reconciliations)

    def summary(self) -> dict[str, object]:
        """A flat dict for reports and experiment tables."""
        return {
            "sends_attempted": self.sends_attempted,
            "delivered": self.delivered,
            "blocked_balance": self.blocked_balance,
            "blocked_limit": self.blocked_limit,
            "junked": self.junked,
            "spam_delivered": self.spam_delivered,
            "zombies_detected": len(self.zombie_detections),
            "reconciliation_rounds": len(self.reconciliations),
            "all_consistent": self.all_reconciliations_consistent,
            "conserved": self.conserved,
        }


@dataclass
class Scenario:
    """A complete simulation specification (direct mode).

    Attributes:
        n_isps / users_per_isp / compliant / config / seed: Deployment
            parameters, as :class:`~repro.core.protocol.ZmailNetwork`.
        duration: Virtual length of the run in seconds.
        normal_rate_per_day: Per-user legitimate send rate (0 disables).
        spammers / zombies: Adversarial actors to inject.
        reconcile_every: Period between §4.4 rounds (0 disables; a final
            round always runs at the end).
    """

    n_isps: int = 3
    users_per_isp: int = 10
    compliant: list[bool] | None = None
    config: ZmailConfig | None = None
    seed: int = 0
    duration: float = 5 * DAY
    normal_rate_per_day: float = 8.0
    spammers: list[SpammerSpec] = field(default_factory=list)
    zombies: list[ZombieSpec] = field(default_factory=list)
    # Flood bursts as real traffic on every executor (direct, engine,
    # columnar, cluster) — the scenario compiler lowers overload
    # profiles here. Distinct from the chaos harness's flood_requests,
    # which injects floods only into ChaosDeployment campaigns.
    floods: list[FloodSpec] = field(default_factory=list)
    reconcile_every: float = 0.0
    # Engine mode: letters travel a FIFO latency network and
    # reconciliation uses the marker snapshot on virtual time.
    engine_mode: bool = False
    # Columnar mode: direct-mode semantics executed by the vectorized
    # struct-of-arrays batch executor (repro.columnar). Requires numpy
    # and an all-compliant deployment; produces accounting bit-identical
    # to direct mode (tested and benchmarked). Mutually exclusive with
    # engine_mode.
    columnar: bool = False
    link: object | None = None  # sim.LinkSpec; object to avoid hard import
    # Observability (repro.obs): an optional TraceRecorder threaded into
    # the deployment (every ledger event is emitted through it) and an
    # optional SpanRegistry for wall-clock phase timing. Both default to
    # off; tracing must not change any protocol outcome (tested).
    tracer: object | None = None
    spans: object | None = None

    def build_network(self, engine=None) -> ZmailNetwork:
        """The deployment this scenario runs on (exposed for customisation)."""
        return ZmailNetwork(
            n_isps=self.n_isps,
            users_per_isp=self.users_per_isp,
            compliant=self.compliant,
            config=self.config,
            seed=self.seed,
            engine=engine,
            link=self.link,  # type: ignore[arg-type]
            tracer=self.tracer,  # type: ignore[arg-type]
            spans=self.spans,  # type: ignore[arg-type]
        )

    def workload_streams(
        self,
        streams: SeededStreams,
        *,
        sender_isps: set[int] | frozenset[int] | None = None,
    ):
        """The scenario's request iterators, optionally filtered by sender.

        ``sender_isps`` restricts the output to requests whose *sender*
        is homed at one of the given ISPs — the cluster runtime's shard
        filter. Filtering is replication-safe: every shard builds the
        same streams from the same seed, so per-name RNG consumption is
        identical everywhere; the normal workload is filtered
        per-request (its per-sender contact streams are independent),
        while spam/zombie streams for foreign actors are skipped
        entirely (each spec has its own spawned stream).
        """
        keep = sender_isps
        iterators = []
        if self.normal_rate_per_day > 0:
            normal = NormalUserWorkload(
                n_isps=self.n_isps,
                users_per_isp=self.users_per_isp,
                rate_per_day=self.normal_rate_per_day,
                streams=streams,
            ).generate(self.duration)
            if keep is not None:
                normal = (r for r in normal if r.sender.isp in keep)
            iterators.append(normal)
        for index, spec in enumerate(self.spammers):
            spawned = streams.spawn(f"spam{index}")
            if keep is not None and spec.address.isp not in keep:
                continue
            iterators.append(
                SpamCampaignWorkload(
                    spammer=spec.address,
                    n_isps=self.n_isps,
                    users_per_isp=self.users_per_isp,
                    volume=spec.volume,
                    start=spec.start,
                    duration=spec.duration,
                    streams=spawned,
                ).generate()
            )
        for index, spec in enumerate(self.zombies):
            spawned = streams.spawn(f"zombie{index}")
            if keep is not None and spec.address.isp not in keep:
                continue
            iterators.append(
                ZombieBurstWorkload(
                    zombie=spec.address,
                    n_isps=self.n_isps,
                    users_per_isp=self.users_per_isp,
                    rate_per_hour=spec.rate_per_hour,
                    start=spec.start,
                    end=spec.end,
                    streams=spawned,
                ).generate()
            )
        for index, spec in enumerate(self.floods):
            spawned = streams.spawn(f"flood{index}")
            if keep is not None and spec.attacker_isp not in keep:
                continue
            iterators.append(
                FloodWorkload(
                    spec=spec,
                    n_isps=self.n_isps,
                    users_per_isp=self.users_per_isp,
                    streams=spawned,
                    name=f"flood{index}",
                ).generate()
            )
        return iterators

    # Backwards-compatible private alias (pre-cluster callers).
    def _workload_streams(self, streams: SeededStreams):
        return self.workload_streams(streams)

    def workload_column_streams(self, streams: SeededStreams):
        """The scenario's traffic as ``(kind, column-chunk iterator)`` pairs.

        The mirror of :meth:`workload_streams` for the columnar executor:
        same workload constructors, same stream names and spawns, so the
        RNG draws — and therefore the traffic — are identical to the
        object path by construction.
        """
        column_streams = []
        if self.normal_rate_per_day > 0:
            normal = NormalUserWorkload(
                n_isps=self.n_isps,
                users_per_isp=self.users_per_isp,
                rate_per_day=self.normal_rate_per_day,
                streams=streams,
            )
            column_streams.append(
                (TrafficKind.NORMAL, normal.generate_columns(self.duration))
            )
        for index, spec in enumerate(self.spammers):
            spawned = streams.spawn(f"spam{index}")
            workload = SpamCampaignWorkload(
                spammer=spec.address,
                n_isps=self.n_isps,
                users_per_isp=self.users_per_isp,
                volume=spec.volume,
                start=spec.start,
                duration=spec.duration,
                streams=spawned,
            )
            column_streams.append((TrafficKind.SPAM, workload.generate_columns()))
        for index, spec in enumerate(self.zombies):
            spawned = streams.spawn(f"zombie{index}")
            workload = ZombieBurstWorkload(
                zombie=spec.address,
                n_isps=self.n_isps,
                users_per_isp=self.users_per_isp,
                rate_per_hour=spec.rate_per_hour,
                start=spec.start,
                end=spec.end,
                streams=spawned,
            )
            column_streams.append(
                (TrafficKind.ZOMBIE, workload.generate_columns())
            )
        for index, spec in enumerate(self.floods):
            spawned = streams.spawn(f"flood{index}")
            workload = FloodWorkload(
                spec=spec,
                n_isps=self.n_isps,
                users_per_isp=self.users_per_isp,
                streams=spawned,
                name=f"flood{index}",
            )
            column_streams.append(
                (TrafficKind(spec.kind), workload.generate_columns())
            )
        return column_streams

    def run(self) -> ScenarioResult:
        """Execute the scenario and collect the result."""
        if self.columnar:
            if self.engine_mode:
                raise SimulationError(
                    "columnar and engine modes are mutually exclusive"
                )
            from ..columnar.executor import run_columnar

            return run_columnar(self)
        if self.engine_mode:
            return self._run_engine()
        network = self.build_network()
        monitor = ZombieMonitor(network)
        for spec in self.spammers:
            if spec.war_chest:
                network.fund_user(spec.address, epennies=spec.war_chest)

        streams = SeededStreams(self.seed)
        requests = merge_workloads(*self._workload_streams(streams))

        reconciliations: list[ReconciliationReport] = []
        cut_digests: list[str] = []
        next_reconcile = (
            self.reconcile_every if self.reconcile_every > 0 else None
        )
        attempted = 0
        with network.spans.span("workload.batch"):
            for request in requests:
                if next_reconcile is not None and request.time >= next_reconcile:
                    reconciliations.append(network.reconcile("direct"))
                    cut_digests.append(accounting_digest(network))
                    next_reconcile += self.reconcile_every
                network.note_time(request.time)
                network.send(request.sender, request.recipient, request.kind)
                attempted += 1
        network.note_time(self.duration)
        reconciliations.append(network.reconcile("direct"))
        cut_digests.append(accounting_digest(network))
        monitor.poll()
        result = self._collect(network, monitor, attempted, reconciliations)
        result.cut_digests = cut_digests
        return result

    def _run_engine(self) -> ScenarioResult:
        from ..sim.engine import Engine

        engine = Engine(spans=self.spans)  # type: ignore[arg-type]
        network = self.build_network(engine=engine)
        monitor = ZombieMonitor(network)
        for spec in self.spammers:
            if spec.war_chest:
                network.fund_user(spec.address, epennies=spec.war_chest)

        streams = SeededStreams(self.seed)
        requests = merge_workloads(*self._workload_streams(streams))
        # The network tallies attempts itself (workload_attempted), so the
        # streaming fast path needs no counting wrapper around the (hot)
        # request iterator and never holds the workload in memory.
        network.run_workload(requests)
        if self.reconcile_every > 0:
            t = self.reconcile_every
            while t < self.duration:
                engine.schedule_at(
                    t, lambda: network.reconcile("marker"), label="reconcile"
                )
                t += self.reconcile_every
        # Bounded runs: run_workload arms a perpetual midnight chain, so
        # an unbounded engine.run() would never return. One virtual day of
        # slack drains in-flight letters and completes the closing round.
        engine.run(until=self.duration)
        network.reconcile("marker")
        # The workload is over: cancel the perpetual midnight chain so the
        # drain window below only delivers in-flight letters. Letting it
        # fire would rebalance pools for a day the direct path never
        # simulates, making cross-mode accounting diverge.
        if network.midnight_handle is not None:
            network.midnight_handle.cancel()
        engine.run(until=self.duration + DAY)
        monitor.poll()
        return self._collect(
            network,
            monitor,
            network.workload_attempted,
            list(network.bank.reports),
        )

    def _collect(self, network, monitor, attempted, reconciliations):
        counters = network.metrics.snapshot()["counters"]
        junked = sum(
            isp.stats.junked for isp in network.compliant_isps().values()
        )
        discarded = sum(
            isp.stats.discarded for isp in network.compliant_isps().values()
        )
        return ScenarioResult(
            network=network,
            duration=self.duration,
            sends_attempted=attempted,
            delivered=counters.get("deliver.delivered", 0)
            + counters.get("send.delivered_local", 0),
            blocked_balance=counters.get("send.blocked_balance", 0),
            blocked_limit=counters.get("send.blocked_limit", 0),
            junked=junked,
            discarded=discarded,
            spam_delivered=counters.get("deliver.kind.spam", 0),
            zombie_detections=list(monitor.detections),
            reconciliations=reconciliations,
            conserved=network.total_value() == network.expected_total_value(),
        )
