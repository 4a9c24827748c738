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

Each traffic term (normal mail, spam campaigns, zombie bursts, floods)
becomes its workload in one place, :meth:`Scenario._workloads`; the
object view (:meth:`Scenario.workload_streams`) and the column view
(:meth:`Scenario.workload_column_streams`) both derive from it.
:attr:`Scenario.mode` names the executor that replays the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

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


def _columns_until(chunks, horizon: float):
    """Column chunks cut before the first arrival at or past ``horizon``."""
    for times, senders, recipients in chunks:
        cut = int(np.searchsorted(times, horizon, side="left"))
        if cut:
            yield times[:cut], senders[:cut], recipients[:cut]
        if cut < len(times):
            return


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
    """A complete simulation specification.

    Attributes:
        n_isps / users_per_isp / compliant / config / seed: Deployment
            parameters, as :class:`~repro.core.protocol.ZmailNetwork`.
        duration: Virtual length of the run in seconds.
        normal_rate_per_day: Per-user legitimate send rate (0 disables).
        spammers / zombies: Adversarial actors to inject.
        reconcile_every: Period between §4.4 rounds (0 disables; a final
            round always runs at the end).
        mode: The executor, ``"direct"``, ``"columnar"`` or ``"engine"``.
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
    # "direct" is the reference semantics; "columnar" runs them as
    # vectorized batches (repro.columnar, all-compliant deployments
    # only); "engine" sends letters over a FIFO latency network.
    mode: str = "direct"
    link: object | None = None  # sim.LinkSpec; object to avoid hard import
    # Observability (repro.obs): an optional TraceRecorder threaded into
    # the deployment (every ledger event is emitted through it). Off by
    # default; tracing must not change any protocol outcome (tested).
    tracer: object | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("direct", "columnar", "engine"):
            raise SimulationError(
                f"unknown scenario executor mode {self.mode!r}; expected "
                "'direct', 'columnar' or 'engine'"
            )

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
        )

    def _deploy(self, engine=None):
        """The deployment, spammers funded, and a zombie monitor on it."""
        network = self.build_network(engine=engine)
        for spec in self.spammers:
            if spec.war_chest:
                network.fund_user(spec.address, epennies=spec.war_chest)
        return network, ZombieMonitor(network)

    def _workloads(self, streams: SeededStreams):
        """Build every traffic term's workload once, in stream order.

        Yields ``(kind, sender_isp, workload, args, end)``:
        ``sender_isp`` is the ISP all of the term's mail is sent from
        (``None`` for normal traffic, whose senders span the
        population), ``args`` what the workload's ``generate`` and
        ``generate_columns`` take, and ``end`` where its window closes.
        Terms whose window opens at or past the ``duration`` horizon are
        left out. Every spec draws from its own spawned stream family, so
        building a term draws nothing and no term perturbs another.
        """
        size = {"n_isps": self.n_isps, "users_per_isp": self.users_per_isp}
        if self.normal_rate_per_day > 0:
            normal = NormalUserWorkload(
                rate_per_day=self.normal_rate_per_day, streams=streams, **size
            )
            horizon = self.duration
            yield TrafficKind.NORMAL, None, normal, (horizon,), horizon
        for index, spec in enumerate(self.spammers):
            if spec.start >= self.duration:
                continue
            spam = SpamCampaignWorkload(
                spammer=spec.address,
                volume=spec.volume,
                start=spec.start,
                duration=spec.duration,
                streams=streams.spawn(f"spam{index}"),
                **size,
            )
            end = spec.start + spec.duration
            yield TrafficKind.SPAM, spec.address.isp, spam, (), end
        for index, spec in enumerate(self.zombies):
            if spec.start >= self.duration:
                continue
            zombie = ZombieBurstWorkload(
                zombie=spec.address,
                rate_per_hour=spec.rate_per_hour,
                start=spec.start,
                end=spec.end,
                streams=streams.spawn(f"zombie{index}"),
                **size,
            )
            yield TrafficKind.ZOMBIE, spec.address.isp, zombie, (), spec.end
        for index, spec in enumerate(self.floods):
            if spec.start >= self.duration:
                continue
            flood = FloodWorkload(
                spec=spec,
                streams=streams.spawn(f"flood{index}"),
                name=f"flood{index}",
                **size,
            )
            end = spec.start + spec.duration
            yield TrafficKind(spec.kind), spec.attacker_isp, flood, (), end

    def workload_streams(
        self,
        streams: SeededStreams,
        *,
        sender_isps: set[int] | frozenset[int] | None = None,
    ):
        """The scenario's request iterators, optionally filtered by sender.

        Traffic stops at the ``duration`` horizon: a term whose window
        runs past it is cut there, so every executor sees the same
        requests. ``sender_isps`` restricts the output to requests whose
        *sender* is homed at one of the given ISPs — the cluster
        runtime's shard filter. Filtering is replication-safe: every
        shard builds the same workloads from the same seed, so per-name
        RNG consumption is identical everywhere; the normal workload is
        filtered per-request, while the other terms of foreign actors are
        skipped entirely.
        """
        keep = sender_isps
        horizon = self.duration
        iterators = []
        for _kind, home, workload, args, end in self._workloads(streams):
            if keep is not None and home is not None and home not in keep:
                continue
            requests = workload.generate(*args)
            if end > horizon:
                requests = takewhile(lambda r: r.time < horizon, requests)
            if keep is not None and home is None:
                requests = (r for r in requests if r.sender.isp in keep)
            iterators.append(requests)
        return iterators

    def workload_column_streams(self, streams: SeededStreams):
        """The scenario's traffic as ``(kind, column-chunk iterator)`` pairs.

        The columnar executor's view of the same workloads, cut at the
        same horizon, that :meth:`workload_streams` expands into requests.
        """
        column_streams = []
        for kind, _home, workload, args, end in self._workloads(streams):
            chunks = workload.generate_columns(*args)
            if end > self.duration:
                chunks = _columns_until(chunks, self.duration)
            column_streams.append((kind, chunks))
        return column_streams

    def run(self) -> ScenarioResult:
        """Execute the scenario and collect the result."""
        if self.mode == "columnar":
            from ..columnar.executor import run_columnar

            return run_columnar(self)
        if self.mode == "engine":
            return self._run_engine()
        network, monitor = self._deploy()
        streams = SeededStreams(self.seed)
        requests = merge_workloads(*self.workload_streams(streams))

        reconciliations: list[ReconciliationReport] = []
        cut_digests: list[str] = []
        next_reconcile = (
            self.reconcile_every if self.reconcile_every > 0 else None
        )
        attempted = 0
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

        engine = Engine()
        network, monitor = self._deploy(engine)
        streams = SeededStreams(self.seed)
        requests = merge_workloads(*self.workload_streams(streams))
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
