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

Every direct-semantics drive loop — :meth:`Scenario.run`'s direct loop, the
cluster shard and the arena match — reads its traffic from
:meth:`Scenario.request_rows`: the column view merged by
:func:`~repro.columnar.plan.merge_column_streams` and expanded into
``(time, sender, recipient, kind)`` rows. Their request order is that
merge's tie-break, which matches ``heapq.merge`` over the object view
(``tests/test_sim_traffic_pins.py`` holds both to one pin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, takewhile

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
    # Unused here; perfbench's workload.gen boundary patches this name.
    merge_workloads,  # noqa: F401
)
from .config import ZmailConfig
from .misbehavior import ReconciliationReport
from .protocol import ZmailNetwork
from .zombie import ZombieDetection, ZombieMonitor

__all__ = ["SpammerSpec", "ZombieSpec", "Scenario", "ScenarioResult"]

#: Rows :meth:`Scenario.request_rows` expands per slice of a merged
#: plan, so no plan-sized Python list is ever built.
_ROW_SLICE = 4096


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
    # Accounting digest after every reconciliation cut; reports carry it
    # beside summary(), not in it.
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
        mode: The executor, ``"direct"`` or ``"columnar"``; :meth:`run`
            refuses any other.
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
    # Flood bursts as real traffic on every drive (direct, columnar,
    # cluster, and the chaos and soak deployments).
    floods: list[FloodSpec] = field(default_factory=list)
    reconcile_every: float = 0.0
    # "direct" is the reference semantics; "columnar" runs them as
    # vectorized batches (repro.columnar).
    mode: str = "direct"
    # Observability (repro.obs): an optional TraceRecorder threaded into
    # the deployment (every ledger event is emitted through it). Off by
    # default; tracing must not change any protocol outcome (tested).
    tracer: object | None = None

    def build_network(self) -> ZmailNetwork:
        """The deployment this scenario runs on (exposed for customisation)."""
        return ZmailNetwork(
            n_isps=self.n_isps,
            users_per_isp=self.users_per_isp,
            compliant=self.compliant,
            config=self.config,
            seed=self.seed,
            tracer=self.tracer,  # type: ignore[arg-type]
        )

    def fund_spammers(self, network: ZmailNetwork) -> None:
        """Grant every spammer its war chest on ``network``.

        A no-op for spammers homed off a cluster shard's slice: their
        home shard funds them.
        """
        for spec in self.spammers:
            if spec.war_chest:
                network.fund_user(spec.address, epennies=spec.war_chest)

    def _deploy(self):
        """The deployment, spammers funded, and a zombie monitor on it."""
        network = self.build_network()
        self.fund_spammers(network)
        return network, ZombieMonitor(network)

    def _workloads(self, streams: SeededStreams):
        """Build every traffic term's workload once, in stream order.

        Yields ``(kind, workload, args, end)``: ``args`` is what the
        workload's ``generate`` and ``generate_columns`` take, and
        ``end`` where its window closes.
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
            yield TrafficKind.NORMAL, normal, (horizon,), horizon
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
            yield TrafficKind.SPAM, spam, (), end
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
            yield TrafficKind.ZOMBIE, zombie, (), spec.end
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
            yield TrafficKind(spec.kind), flood, (), end

    def workload_streams(self, streams: SeededStreams):
        """The scenario's request iterators, one per traffic term.

        Traffic stops at the ``duration`` horizon: a term whose window
        runs past it is cut there, so every executor sees the same
        requests. The drive loops read :meth:`request_rows`; this object
        view feeds the chaos and soak deployments and is the reference
        the row view is tested against.
        """
        horizon = self.duration
        iterators = []
        for _kind, workload, args, end in self._workloads(streams):
            requests = workload.generate(*args)
            if end > horizon:
                requests = takewhile(lambda r: r.time < horizon, requests)
            iterators.append(requests)
        return iterators

    def workload_column_streams(self, streams: SeededStreams):
        """The scenario's traffic as ``(kind, column-chunk iterator)`` pairs.

        The columnar executor's view of the same workloads, cut at the
        same horizon, that :meth:`workload_streams` expands into requests.
        """
        column_streams = []
        for kind, workload, args, end in self._workloads(streams):
            chunks = workload.generate_columns(*args)
            if end > self.duration:
                chunks = _columns_until(chunks, self.duration)
            column_streams.append((kind, chunks))
        return column_streams

    def request_rows(
        self,
        streams: SeededStreams,
        *,
        sender_isps: set[int] | frozenset[int] | None = None,
    ):
        """The merged traffic as ``(time, sender, recipient, kind)`` rows.

        The column view, merged into one time order and expanded a
        slice at a time through one gid -> :class:`Address` table and
        :data:`~repro.columnar.plan.KIND_ORDER`. ``sender_isps`` keeps
        only the rows whose *sender* is homed at one of the given ISPs —
        the cluster shard's slice. It masks the globally merged order,
        so a shard replays its rows in the order the whole run does.
        """
        # Imported here: a process that never drives traffic (perfbench's
        # setup probes) does not load the columnar package.
        from ..columnar.plan import KIND_ORDER, merge_column_streams

        users = self.users_per_isp
        addresses = [
            Address(isp, user)
            for isp in range(self.n_isps)
            for user in range(users)
        ]
        address = addresses.__getitem__
        kind = KIND_ORDER.__getitem__
        local = None
        if sender_isps is not None:
            local = np.zeros(len(addresses), dtype=bool)
            for isp in sender_isps:
                local[isp * users:(isp + 1) * users] = True

        def slices():
            plans = merge_column_streams(self.workload_column_streams(streams))
            for plan in plans:
                times, senders = plan.times, plan.senders
                recipients, kinds = plan.recipients, plan.kinds
                if local is not None:
                    keep = local[senders]
                    times, senders = times[keep], senders[keep]
                    recipients, kinds = recipients[keep], kinds[keep]
                for start in range(0, len(times), _ROW_SLICE):
                    stop = start + _ROW_SLICE
                    yield zip(
                        times[start:stop].tolist(),
                        map(address, senders[start:stop].tolist()),
                        map(address, recipients[start:stop].tolist()),
                        map(kind, kinds[start:stop].tolist()),
                    )

        # Chained in C: no Python frame resumes per row, only per slice.
        return chain.from_iterable(slices())

    def run(self) -> ScenarioResult:
        """Execute the scenario on :attr:`mode` and collect the result.

        Raises:
            SimulationError: if :attr:`mode` names no executor.
        """
        if self.mode == "columnar":
            from ..columnar.executor import run_columnar

            return run_columnar(self)
        if self.mode != "direct":
            raise SimulationError(
                f"unknown scenario executor mode {self.mode!r}; expected "
                "'direct' or 'columnar'"
            )
        network, monitor = self._deploy()
        rows = self.request_rows(SeededStreams(self.seed))

        reconciliations: list[ReconciliationReport] = []
        cut_digests: list[str] = []
        next_reconcile = (
            self.reconcile_every if self.reconcile_every > 0 else None
        )
        note_time = network.note_time
        send = network.send
        attempted = 0
        for when, sender, recipient, kind in rows:
            if next_reconcile is not None and when >= next_reconcile:
                reconciliations.append(network.reconcile("direct"))
                cut_digests.append(accounting_digest(network))
                next_reconcile += self.reconcile_every
            note_time(when)
            send(sender, recipient, kind)
            attempted += 1
        network.note_time(self.duration)
        reconciliations.append(network.reconcile("direct"))
        cut_digests.append(accounting_digest(network))
        monitor.poll()
        result = self._collect(network, monitor, attempted, reconciliations)
        result.cut_digests = cut_digests
        return result

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
