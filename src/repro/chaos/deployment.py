"""A full Zmail deployment wired for chaos.

:class:`ChaosDeployment` assembles the system the way a distributed
deployment actually runs it:

* a :class:`~repro.chaos.faults.FaultyNetwork` carries every inter-node
  message (letters and control traffic) with configurable drop /
  duplicate / reorder / delay faults;
* one :class:`~repro.sim.reliable.ReliableEndpoint` per ISP and one for
  the bank restore exactly-once in-order delivery on top of the faults —
  the paper's §3 channel assumption, earned rather than assumed;
* the :class:`~repro.core.protocol.ZmailNetwork` core runs on this
  deployment's engine but hands every outbound letter to this
  deployment's transport, so all economics flow through the faulty wire;
* a :class:`~repro.chaos.crash.CrashController` fail-stops nodes mid-run
  and restarts them from the records it committed to a durable store;
* a :class:`~repro.chaos.snapshot.RetryingSnapshotCoordinator` keeps
  §4.4 reconciliation converging despite all of the above;
* an :class:`~repro.chaos.monitors.InvariantMonitor` checks
  anti-symmetry, conservation and non-negativity on a periodic timer.

With an :class:`~repro.core.overload.OverloadConfig` the deployment adds
the overload-protection layer: per-ISP admission control inside the
Zmail core (driven by this deployment's engine clock and timers), a
circuit breaker per directed inter-ISP link that *parks* outbound
letters when the reliable layer's unacked backlog says the peer is
saturated (parked letters stay in the in-flight ledger, so anti-symmetry
accounting is undisturbed, and are flushed when a probe finds the
backlog drained), a breaker guarding bank snapshot RPCs (reconciliation
rounds are skipped, not wedged, while the bank keeps failing rounds),
and an :class:`~repro.chaos.monitors.OverloadMonitor` asserting bounded
memory and no-lost-accounting on the monitor cadence.

Submissions for a crashed ISP are queued client-side (users retry) and
flushed when the node returns, so a crash delays mail but never loses a
submission — the property the differential tests pin down.
"""

from __future__ import annotations

from typing import Iterable

from ..core.config import ZmailConfig
from ..core.overload import CircuitBreaker, OverloadConfig
from ..core.protocol import ZmailNetwork
from ..core.transfer import Letter, SendReceipt
from ..errors import SimulationError
from ..obs.manifest import accounting_digest
from ..obs.trace import NULL_TRACER, TraceRecorder
from ..sim.clock import DAY
from ..sim.engine import Engine
from ..sim.network import LinkSpec
from ..sim.reliable import ReliableEndpoint
from ..sim.rng import SeededStreams, derive_seed
from ..sim.workload import SendRequest
from .crash import CrashController, CrashEvent
from .faults import FaultSpec, FaultyNetwork
from .monitors import InvariantMonitor, OverloadMonitor
from .snapshot import (
    ChaosSnapshotReply,
    ChaosSnapshotRequest,
    RetryingSnapshotCoordinator,
    SnapshotAbort,
)

__all__ = ["ChaosDeployment"]

#: Every wire link: 50 ms, no loss (loss is injected via ``faults``).
LINK = LinkSpec(base_latency=0.05)
#: Reliable layer: base retransmission timeout, exponential backoff
#: multiplier and the cap on the backed-off interval.
RETRANSMIT_INTERVAL = 0.5
BACKOFF = 2.0
MAX_INTERVAL = 8.0
#: Virtual seconds the drain phase runs between quiescence checks.
DRAIN_STEP = 5.0


class ChaosDeployment:
    """A Zmail system under reliable links over a faulty network.

    Args:
        n_isps: Number of ISPs (named ``isp0`` … ``ispN-1`` on the wire).
        users_per_isp: Users per ISP.
        seed: Root seed; every RNG stream (faults, workloads, links)
            derives from it, so a run is bit-reproducible from this one
            number.
        compliant: Per-ISP compliance flags (default: all compliant).
        config: Zmail economics parameters.
        faults: The fault mix of every link (on top of the 50 ms,
            lossless :data:`LINK`); default no faults.
        monitor_interval: Seconds between invariant checks.
        reconcile_every: Period of §4.4 reconciliation rounds; ``0``
            disables reconciliation.
        overload: Enable the overload-protection layer (admission
            control, transfer/snapshot circuit breakers, overload
            monitor) with these parameters; ``None`` (the default) keeps
            the historical unprotected behaviour, byte-for-byte.
    """

    def __init__(
        self,
        *,
        n_isps: int,
        users_per_isp: int,
        seed: int,
        compliant: Iterable[bool] | None = None,
        config: ZmailConfig | None = None,
        faults: FaultSpec | None = None,
        monitor_interval: float = 5.0,
        reconcile_every: float = 0.0,
        overload: OverloadConfig | None = None,
        tracer: TraceRecorder | None = None,
    ) -> None:
        self.seed = seed
        self.engine = Engine()
        # Observability: the deployment owns the virtual clock, so it
        # installs it on the tracer before any subsystem attaches.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None and tracer is not NULL_TRACER and tracer.clock is None:
            engine_clock = self.engine.clock
            tracer.clock = lambda: engine_clock.now
        self.net = FaultyNetwork(
            self.engine,
            SeededStreams(derive_seed(seed, "chaos-net")),
            default_link=LINK,
            default_faults=faults,
            tracer=tracer,
        )
        # The Zmail core runs on this deployment's engine (the clock and
        # timers of admission-control retries) and yields every outbound
        # letter to our transport, which carries it over reliable links.
        self.overload = overload
        self.network = ZmailNetwork(
            n_isps=n_isps,
            users_per_isp=users_per_isp,
            compliant=compliant,
            config=config,
            seed=seed,
            engine=self.engine,
            transport=self._transport,
            overload=overload,
            # A crashed ISP must not process admission retries: the pump
            # holds its deferred queue until the node is back up.
            overload_gate=(
                (lambda isp_id: not self.net.is_down(f"isp{isp_id}"))
                if overload
                else None
            ),
            tracer=tracer,
        )
        self.endpoints: dict[str, ReliableEndpoint] = {}
        for isp_id in range(n_isps):
            name = f"isp{isp_id}"
            self.endpoints[name] = ReliableEndpoint(
                name,
                self.net,
                self.engine,
                self._isp_payload_handler(isp_id),
                retransmit_interval=RETRANSMIT_INTERVAL,
                max_retries=None,  # peers come back; convergence is the test
                backoff=BACKOFF,
                max_interval=MAX_INTERVAL,
            )
        self.endpoints["bank"] = ReliableEndpoint(
            "bank",
            self.net,
            self.engine,
            self._on_bank_payload,
            retransmit_interval=RETRANSMIT_INTERVAL,
            max_retries=None,
            backoff=BACKOFF,
            max_interval=MAX_INTERVAL,
        )
        self.coordinator = RetryingSnapshotCoordinator(self)
        self.crash_controller = CrashController(self)
        self.monitor = InvariantMonitor(self, interval=monitor_interval)
        self.overload_monitor = OverloadMonitor(self, interval=monitor_interval)
        self.reconcile_every = reconcile_every
        # Overload circuit breakers: one per directed inter-ISP link
        # (created lazily) plus one guarding bank snapshot RPCs.
        self._transfer_breakers: dict[tuple[int, int], CircuitBreaker] = {}
        self._parked: dict[tuple[int, int], list[Letter]] = {}
        self._probe_armed: set[tuple[int, int]] = set()
        self._snapshot_breaker: CircuitBreaker | None = None
        self._rounds_observed = 0
        self.letters_parked = 0
        self.snapshots_skipped = 0
        if overload is not None:
            self._snapshot_breaker = CircuitBreaker(
                failure_threshold=overload.breaker_failure_threshold,
                reset_timeout=overload.breaker_reset_timeout,
            )
        # Paid letters currently in flight per unordered ISP pair: the
        # anti-symmetry adjustment the monitor applies mid-run.
        self._inflight_pair: dict[tuple[int, int], int] = {}
        # Client-side retry queues for submissions to crashed ISPs.
        self._deferred: dict[str, list[SendRequest]] = {}
        self._last_restart_time = 0.0
        self.submits = 0
        self.deferred_submits = 0
        self.flushed_submits = 0

    # -- transport (core -> wire) -------------------------------------------------

    def _transport(self, letter: Letter) -> None:
        if letter.paid:
            pair = letter.pair
            self._inflight_pair[pair] = self._inflight_pair.get(pair, 0) + 1
        if self.overload is not None:
            self._send_letter_guarded(letter)
            return
        self.endpoints[f"isp{letter.src_isp}"].send(f"isp{letter.dst_isp}", letter)

    # -- transfer circuit breaker ---------------------------------------------------

    def _transfer_breaker(self, key: tuple[int, int]) -> CircuitBreaker:
        breaker = self._transfer_breakers.get(key)
        if breaker is None:
            assert self.overload is not None
            breaker = CircuitBreaker(
                failure_threshold=self.overload.breaker_failure_threshold,
                reset_timeout=self.overload.breaker_reset_timeout,
            )
            self._transfer_breakers[key] = breaker
        return breaker

    def _send_letter_guarded(self, letter: Letter) -> None:
        """Send one letter through the directed link's circuit breaker.

        The breaker's failure signal is the reliable layer's unacked
        backlog toward the peer: a link whose retransmit queue keeps
        growing (crashed or saturated destination) trips the breaker
        after ``breaker_failure_threshold`` consecutive over-limit
        observations, and subsequent letters *park* locally instead of
        piling more frames onto the dying link. Parked letters were
        already counted in the per-pair in-flight ledger (the sender's
        credit moved at submit), so anti-symmetry monitoring is
        unaffected; they flush once a probe finds the backlog drained.
        """
        assert self.overload is not None
        src, dst = letter.src_isp, letter.dst_isp
        key = (src, dst)
        breaker = self._transfer_breaker(key)
        now = self.engine.now
        if not breaker.allow(now):
            self._parked.setdefault(key, []).append(letter)
            self.letters_parked += 1
            self._arm_park_probe(key)
            return
        src_name, dst_name = f"isp{src}", f"isp{dst}"
        backlog = self.endpoints[src_name].unacked_count(dst_name)
        if backlog > self.overload.breaker_backlog_limit:
            breaker.record_failure(now)
        else:
            breaker.record_success()
        self.endpoints[src_name].send(dst_name, letter)

    def _arm_park_probe(self, key: tuple[int, int]) -> None:
        if key in self._probe_armed:
            return
        assert self.overload is not None
        self._probe_armed.add(key)
        self.engine.schedule_after(
            self.overload.breaker_reset_timeout,
            lambda: self._probe_parked(key),
            label="park-probe",
        )

    def _probe_parked(self, key: tuple[int, int]) -> None:
        """Half-open trial for a parked link: flush if the backlog drained."""
        self._probe_armed.discard(key)
        parked = self._parked.get(key)
        if not parked:
            return
        assert self.overload is not None
        breaker = self._transfer_breakers[key]
        now = self.engine.now
        if not breaker.allow(now):
            self._arm_park_probe(key)
            return
        src, dst = key
        src_name, dst_name = f"isp{src}", f"isp{dst}"
        if self.net.is_down(src_name):
            # The parking ISP itself crashed meanwhile; try again later.
            self._arm_park_probe(key)
            return
        backlog = self.endpoints[src_name].unacked_count(dst_name)
        # Hysteresis: reopen the link only once the backlog has drained
        # to half the trip limit, so flushing doesn't immediately re-trip.
        if backlog > self.overload.breaker_backlog_limit // 2:
            breaker.record_failure(now)
            self._arm_park_probe(key)
            return
        breaker.record_success()
        self._parked[key] = []
        endpoint = self.endpoints[src_name]
        for letter in parked:
            endpoint.send(dst_name, letter)

    def parked_letters(self) -> int:
        """Letters currently parked behind open transfer breakers."""
        return sum(len(letters) for letters in self._parked.values())

    def _isp_payload_handler(self, isp_id: int):
        def on_payload(src: str, payload: object) -> None:
            if isinstance(payload, Letter):
                if payload.paid:
                    pair = payload.pair
                    self._inflight_pair[pair] -= 1
                self.network.deliver_transported(payload)
            elif isinstance(payload, ChaosSnapshotRequest):
                self.coordinator.on_request(isp_id, payload)
            elif isinstance(payload, SnapshotAbort):
                self.coordinator.on_abort(isp_id, payload)
            else:
                raise SimulationError(
                    f"isp{isp_id}: unexpected payload {payload!r} from {src}"
                )

        return on_payload

    def _on_bank_payload(self, src: str, payload: object) -> None:
        if isinstance(payload, ChaosSnapshotReply):
            self.coordinator.on_reply(payload)
        else:
            raise SimulationError(f"bank: unexpected payload {payload!r} from {src}")

    def send_control(self, src: str, dst: str, payload: object) -> None:
        """Carry a control message over the reliable links."""
        self.endpoints[src].send(dst, payload)

    def route_receipts(self, receipts: list[SendReceipt]) -> None:
        """Route letters produced by a flushed outbox (snapshot resume/abort)."""
        for receipt in receipts:
            if receipt.letter is not None:
                self.network._route_letter(receipt.letter)

    # -- workload ------------------------------------------------------------------

    def submit(self, request: SendRequest) -> None:
        """One user's send attempt; queued client-side if their ISP is down."""
        self.submits += 1
        name = f"isp{request.sender.isp}"
        if self.net.is_down(name):
            self.deferred_submits += 1
            self._deferred.setdefault(name, []).append(request)
            return
        self.network.send(request.sender, request.recipient, request.kind)

    def flush_deferred(self, node: str) -> None:
        """Replay submissions queued while ``node`` was down (client retries)."""
        queued = self._deferred.pop(node, None)
        if not queued:
            return
        for request in queued:
            self.flushed_submits += 1
            self.network.send(request.sender, request.recipient, request.kind)

    def schedule_crash(self, event: CrashEvent) -> None:
        """Arm a crash/restart pair; drain waits for the restart."""
        self.crash_controller.schedule(event)
        restart_at = event.at + event.down_for
        if restart_at > self._last_restart_time:
            self._last_restart_time = restart_at

    def _midnight(self) -> None:
        # Crashed nodes miss midnight: no resets, no bank trades. Their
        # durable counters restart exactly as journaled.
        up = [
            isp_id
            for isp_id in self.network.compliant_isps()
            if not self.net.is_down(f"isp{isp_id}")
        ]
        for isp_id in up:
            self.network.isp_midnight(self.network.isps[isp_id])
        if not self.net.is_down("bank"):
            self.network.rebalance_pools(up)

    def _reconcile_tick(self) -> None:
        """Trigger reconciliation, short-circuited by the snapshot breaker.

        The breaker learns from *completed* rounds: each committed round
        is a success, each failed (uncommitted, uninterrupted) round a
        failure. While open, reconciliation ticks are skipped — a bank
        that keeps breaking rounds gets a quiet period instead of an
        ever-growing pile of doomed snapshot RPCs — and a half-open trial
        lets one round probe recovery.
        """
        breaker = self._snapshot_breaker
        if breaker is not None:
            now = self.engine.now
            rounds = self.coordinator.rounds
            index = self._rounds_observed
            while index < len(rounds) and rounds[index].finished_at is not None:
                outcome = rounds[index]
                if outcome.committed:
                    breaker.record_success()
                elif not outcome.interrupted:
                    breaker.record_failure(now)
                index += 1
            self._rounds_observed = index
            if not breaker.allow(now):
                self.snapshots_skipped += 1
                return
        self.coordinator.trigger()

    # -- running ---------------------------------------------------------------------

    def run(
        self,
        requests: Iterable[SendRequest],
        *,
        until: float,
        drain_window: float = 600.0,
    ) -> bool:
        """Drive a workload then drain to quiescence.

        The workload phase runs to ``until`` with the monitor, midnight
        chain and (if configured) periodic reconciliation armed. The
        drain phase stops *generating* new periodic work and runs the
        engine in :data:`DRAIN_STEP` slices until :meth:`quiescent` or the
        ``drain_window`` expires, then performs one final invariant
        check.

        Returns:
            Whether the deployment reached quiescence.
        """
        self.monitor.start()
        self.overload_monitor.start()
        self.engine.add_stream(requests, self.submit, label="chaos-workload")
        midnight = self.engine.schedule_every(
            DAY, self._midnight, label="chaos-midnight"
        )
        reconcile_handle = None
        if self.reconcile_every > 0:
            reconcile_handle = self.engine.schedule_every(
                self.reconcile_every,
                self._reconcile_tick,
                label="chaos-reconcile",
            )
        self.engine.run(until=until)
        midnight.cancel()
        if reconcile_handle is not None:
            reconcile_handle.cancel()
        deadline = until + drain_window
        while self.engine.now < deadline and not self.quiescent():
            self.engine.run(until=min(self.engine.now + DRAIN_STEP, deadline))
        self.monitor.stop()
        self.monitor.check()
        self.overload_monitor.stop()
        self.overload_monitor.check()
        return self.quiescent()

    def quiescent(self) -> bool:
        """Whether every message settled and every crashed node is back."""
        return (
            self.engine.now >= self._last_restart_time
            and not self.net.down_nodes
            and not any(self._deferred.values())
            and not self.coordinator.active
            and self.network.paid_letters_in_flight == 0
            and self.network.overload_pending() == 0
            and self.parked_letters() == 0
            and all(ep.all_delivered() for ep in self.endpoints.values())
        )

    # -- introspection ------------------------------------------------------------------

    def inflight_pair(self, a: int, b: int) -> int:
        """Paid letters currently in flight between ISPs ``a`` and ``b``."""
        key = (a, b) if a <= b else (b, a)
        return self._inflight_pair.get(key, 0)

    def digest(self) -> str:
        """The deployment's accounting digest (see :mod:`repro.obs.manifest`)."""
        return accounting_digest(self.network)

    def stats(self) -> dict:
        """Aggregate wire/recovery counters for campaign reports."""
        endpoints = self.endpoints.values()
        return {
            "submits": self.submits,
            "deferred_submits": self.deferred_submits,
            "flushed_submits": self.flushed_submits,
            "frames_sent": sum(ep.frames_sent for ep in endpoints),
            "retransmissions": sum(ep.retransmissions for ep in endpoints),
            "duplicates_dropped": sum(ep.duplicates_dropped for ep in endpoints),
            "faults_dropped": self.net.faults_dropped,
            "faults_duplicated": self.net.faults_duplicated,
            "faults_reordered": self.net.faults_reordered,
            "dropped_down": self.net.dropped_down,
            "crashes": self.crash_controller.crashes,
            "restarts": self.crash_controller.restarts,
            "snapshot_rounds": len(self.coordinator.rounds),
            "snapshot_committed": self.coordinator.rounds_committed,
            "snapshot_failed": self.coordinator.rounds_failed,
            "monitor_checks": self.monitor.checks_run,
            "violations": self.monitor.violations_seen,
            "overload_violations": self.overload_monitor.violations_seen,
            "letters_parked": self.letters_parked,
            "parked_now": self.parked_letters(),
            "transfer_breaker_opens": sum(
                b.times_opened for b in self._transfer_breakers.values()
            ),
            "snapshot_breaker_opens": (
                self._snapshot_breaker.times_opened
                if self._snapshot_breaker is not None
                else 0
            ),
            "snapshots_skipped": self.snapshots_skipped,
            **self.network.overload_stats(),
        }
