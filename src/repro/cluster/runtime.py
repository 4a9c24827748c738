"""The cluster parent: coordinator, bank, and merge point.

``run_cluster`` drives N shard workers through the epoch-barriered
lockstep documented in :mod:`repro.cluster.worker`. The parent owns:

* the **cycle clock** — it broadcasts ``INPUTS(k)`` and will not
  start cycle ``k+1`` until every shard returned ``OUTPUTS(k)``, the
  BSP barrier that makes OS scheduling irrelevant to the results;
* the **data plane routing** — per-epoch letter batches are forwarded
  between shards as the opaque pre-pickled blobs the workers produced
  (star topology: workers never hold channels to each other, so a
  SIGKILLed worker cannot corrupt a peer's pipe);
* the **bank coordinator** — it merges the per-shard snapshot
  replies at every cut into one credit matrix, runs the §4.4
  anti-symmetry verification, and checks global value conservation
  (Σ total_value == Σ expected_total_value across shards);
* **fail-stop recovery** — a worker that dies mid-run (crash or
  injected SIGKILL) is detected at the barrier, respawned from its
  shard store, and fed the last inputs again; duplicate messages on either
  side are dropped by cycle number, so the run converges to the
  fault-free digests;
* the **merge** — per-shard digest accumulators, counters, balances and
  detections fold into one :class:`~repro.obs.manifest.RunManifest`
  whose bytes are invariant across shard counts (the ``cmp`` oracle CI
  uses), plus a per-run report carrying the non-invariant detail
  (assignment, restarts, per-shard digests).

Two drive modes share every line of protocol logic via shard handles:
``spawn`` runs real ``multiprocessing`` processes (the production path,
used by the benchmark), ``inline`` drives the same workers in-process
(deterministic fault injection, and coverage tracers can see it).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
from dataclasses import dataclass, field

from ..core.bank import Bank
from ..core.scenario import Scenario
from ..errors import SimulationError
from ..obs.manifest import (
    RunManifest,
    config_digest,
    invariant_accounting_digest,
)
from ..obs.metrics_export import MetricsExporter
from ..obs.schema import LEDGER_EVENT_TYPES
from ..obs.trace import AdditiveMultisetDigest
from ..sim.clock import DAY, HOUR
from .planner import ShardPlan, plan_shards
from .worker import ShardSpec, ShardWorker, worker_entry

__all__ = ["ClusterError", "ClusterConfig", "ClusterResult", "run_cluster"]


class ClusterError(SimulationError):
    """A cluster protocol violation (lost worker, broken barrier, ...)."""


@dataclass
class ClusterConfig:
    """One cluster run's knobs.

    Args:
        scenario: The workload to run — identical to what a
            single-process :meth:`Scenario.run` would take.
        n_shards: Worker count; results are invariant to it.
        epoch_len: Barrier spacing in virtual seconds. Must divide the
            scenario duration and the day length (and the reconcile
            period, when set) so day boundaries and cuts land exactly on
            barriers — the alignment the determinism argument needs.
        mode: ``"spawn"`` for real processes, ``"inline"`` for
            in-process workers (tests, coverage, deterministic faults).
        traced: Also keep each worker's timestamped full-event digest
            (``manifest.event_digest``, the shard-invariance oracle).
            The ledger digest (``ledger_digest``/``ledger_event_count``
            in ``manifest.extra``) is kept either way: every manifest
            reads it. ``run_plan`` turns this off.
        journal_dir: Where workers commit their barrier state, one
            :class:`~repro.store.backend.DurableStore` per shard
            (``shard{N}.db``). Required for crash recovery; without it a
            lost worker is fatal. Must not already hold shard stores.
        kill_shard / kill_cycle: Fault injection — the parent kills that
            shard's worker right after broadcasting that cycle's inputs,
            exercising the fail-stop path deterministically.
        recv_timeout: Seconds the parent waits on one worker message in
            spawn mode before declaring the run wedged.
    """

    scenario: Scenario
    n_shards: int = 2
    epoch_len: float = HOUR
    mode: str = "spawn"
    traced: bool = True
    journal_dir: str | None = None
    kill_shard: int | None = None
    kill_cycle: int | None = None
    recv_timeout: float = 300.0


@dataclass
class ClusterResult:
    """What a cluster run produced.

    ``manifest`` is the shard-count-invariant identity card (its
    ``to_json()`` bytes are what CI ``cmp``s across N=1 vs N=4);
    ``report`` carries the run-specific detail that legitimately differs
    (assignment, restarts, per-shard digests).
    """

    manifest: RunManifest
    report: dict
    accounting: dict
    detections: list[tuple[int, int, int, int]]
    rounds: list[dict] = field(default_factory=list)

    @property
    def conserved(self) -> bool:
        return bool(self.manifest.extra["conserved"])

    @property
    def all_consistent(self) -> bool:
        return bool(self.manifest.extra["all_consistent"])


def _exact_multiple(total: float, step: float, what: str) -> int:
    """``total / step`` as an int, or ``ValueError`` if it isn't one."""
    count = round(total / step)
    if count <= 0 or abs(count * step - total) > 1e-9 * max(1.0, abs(total)):
        raise ValueError(
            f"{what} ({total}) must be a positive multiple of the epoch "
            f"length ({step})"
        )
    return count


# -- shard handles: one protocol, two drive modes ---------------------------


class _InlineHandle:
    """Drives a :class:`ShardWorker` in-process behind the pipe protocol."""

    def __init__(self, spec: ShardSpec) -> None:
        self._spec = spec
        self._queue: list[dict] = []
        self._worker: ShardWorker | None = ShardWorker(spec)
        self._enqueue_pending()

    def _enqueue_pending(self) -> None:
        outputs = self._worker.take_pending_outputs()
        if outputs is not None:
            self._queue.append(outputs)

    def send(self, msg: dict) -> None:
        if self._worker is None:
            return  # dead until respawn; crash surfaces at recv
        outputs = self._worker.handle_inputs(msg)
        if outputs is not None:
            self._queue.append(outputs)

    def recv(self, timeout: float) -> dict:
        if self._worker is None or not self._queue:
            raise EOFError("inline shard worker is gone")
        return self._queue.pop(0)

    def kill(self) -> None:
        self._worker = None
        self._queue.clear()

    def respawn(self) -> None:
        self._worker = ShardWorker(self._spec)
        self._queue.clear()
        self._enqueue_pending()

    def close(self) -> None:
        self._worker = None
        self._queue.clear()


class _SpawnHandle:
    """One real worker process plus the parent end of its pipe."""

    def __init__(self, spec: ShardSpec, ctx) -> None:
        self._spec = spec
        self._ctx = ctx
        self._proc = None
        self._conn = None
        self._start()

    def _start(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_entry, args=(child_conn, self._spec), daemon=True
        )
        proc.start()
        # The parent must drop its copy of the child end, or a dead
        # worker's pipe never reads as EOF and crashes go undetected.
        child_conn.close()
        self._proc, self._conn = proc, parent_conn

    def send(self, msg: dict) -> None:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError):
            pass  # the worker died; recv() reports it

    def recv(self, timeout: float) -> dict:
        if not self._conn.poll(timeout):
            raise ClusterError(
                f"shard {self._spec.shard_id} sent nothing for {timeout}s; "
                "cluster run is wedged"
            )
        return self._conn.recv()  # raises EOFError if the worker died

    def kill(self) -> None:
        self._proc.kill()
        self._proc.join()

    def respawn(self) -> None:
        self._conn.close()
        self._proc.join()
        self._proc.close()
        self._start()

    def close(self) -> None:
        self._conn.close()
        if self._proc.is_alive():
            self._proc.terminate()
        self._proc.join()
        self._proc.close()


# -- the run ----------------------------------------------------------------


def run_cluster(config: ClusterConfig) -> ClusterResult:
    """Run one scenario across shards; see the module docstring."""
    scenario = config.scenario
    if config.mode not in ("spawn", "inline"):
        raise ValueError(f"unknown cluster mode {config.mode!r}")
    if config.epoch_len <= 0:
        raise ValueError(f"epoch_len must be positive, got {config.epoch_len}")
    total_cycles = _exact_multiple(
        scenario.duration, config.epoch_len, "scenario duration"
    )
    _exact_multiple(DAY, config.epoch_len, "the day length")
    cut_every = 0
    if scenario.reconcile_every > 0:
        cut_every = _exact_multiple(
            scenario.reconcile_every, config.epoch_len, "reconcile_every"
        )
    cuts = set(range(cut_every, total_cycles, cut_every)) if cut_every else set()
    cuts.add(total_cycles)  # the final barrier is always a cut
    if (config.kill_shard is None) != (config.kill_cycle is None):
        raise ValueError("kill_shard and kill_cycle must be set together")
    if config.kill_shard is not None:
        if not 0 <= config.kill_shard < config.n_shards:
            raise ValueError(f"kill_shard {config.kill_shard} out of range")
        if not 0 <= config.kill_cycle <= total_cycles:
            raise ValueError(f"kill_cycle {config.kill_cycle} out of range")
        if config.journal_dir is None:
            raise ValueError("fault injection needs a journal_dir to recover")
    if config.journal_dir is not None:
        # Only a respawned worker may open an existing shard store; a
        # fresh run over an earlier run's stores would resume from them.
        stale = glob.glob(os.path.join(config.journal_dir, "shard*.db"))
        if stale:
            raise ValueError(
                f"journal_dir {config.journal_dir!r} already holds shard "
                f"stores ({', '.join(sorted(map(os.path.basename, stale)))}); "
                "a fresh run needs an empty journal_dir"
            )
        os.makedirs(config.journal_dir, exist_ok=True)

    plan = plan_shards(scenario.n_isps, config.n_shards, seed=scenario.seed)
    specs = [
        ShardSpec(
            shard_id=shard,
            n_shards=config.n_shards,
            scenario=scenario,
            assignment=plan.assignment,
            epoch_len=config.epoch_len,
            total_cycles=total_cycles,
            journal_dir=config.journal_dir,
            traced=config.traced,
        )
        for shard in range(config.n_shards)
    ]
    if config.mode == "spawn":
        ctx = multiprocessing.get_context("spawn")
        handles = [_SpawnHandle(spec, ctx) for spec in specs]
    else:
        handles = [_InlineHandle(spec) for spec in specs]

    flags = (
        list(scenario.compliant)
        if scenario.compliant is not None
        else [True] * scenario.n_isps
    )
    bank = Bank()
    for isp_id, is_compliant in enumerate(flags):
        if is_compliant:
            # Zero account: the parent bank verifies, it holds no money
            # (the per-shard bank slices hold the real accounts).
            bank.register_isp(isp_id, initial_account=0)

    restarts = [0] * config.n_shards
    rounds: list[dict] = []
    all_consistent = True
    killed = False
    last_inputs: list[dict | None] = [None] * config.n_shards
    finals: list[dict | None] = [None] * config.n_shards

    def collect(shard: int, cycle: int) -> dict:
        """One shard's outputs for ``cycle``, surviving crashes."""
        while True:
            try:
                msg = handles[shard].recv(config.recv_timeout)
            except (EOFError, OSError):
                if config.journal_dir is None:
                    raise ClusterError(
                        f"shard {shard} died with no journal to recover from"
                    ) from None
                restarts[shard] += 1
                if restarts[shard] > 3 * (total_cycles + 1):
                    raise ClusterError(
                        f"shard {shard} keeps dying; giving up after "
                        f"{restarts[shard]} restarts"
                    ) from None
                handles[shard].respawn()
                handles[shard].send(last_inputs[shard])
                continue
            if msg["cycle"] < cycle:
                continue  # duplicate from a replayed journal epoch
            if msg["cycle"] > cycle:
                raise ClusterError(
                    f"shard {shard} ran ahead: expected cycle {cycle}, "
                    f"got {msg['cycle']}"
                )
            return msg

    try:
        batches_for = [[] for _ in range(config.n_shards)]
        for cycle in range(total_cycles + 1):
            is_cut = cycle in cuts
            is_final = cycle == total_cycles
            for shard in range(config.n_shards):
                msg = {
                    "type": "inputs",
                    "cycle": cycle,
                    "batches": batches_for[shard],
                    "reconcile": is_cut,
                    "final": is_final,
                }
                last_inputs[shard] = msg
                handles[shard].send(msg)
            if (
                not killed
                and config.kill_shard is not None
                and cycle == config.kill_cycle
            ):
                handles[config.kill_shard].kill()
                killed = True
            outputs = [
                collect(shard, cycle) for shard in range(config.n_shards)
            ]
            if is_cut:
                merged, expected_round = {}, len(rounds)
                totals = expected_totals = 0
                for shard, out in enumerate(outputs):
                    cut = out["cut"]
                    if cut is None or cut["round_seq"] != expected_round:
                        raise ClusterError(
                            f"shard {shard} out of step at cut cycle "
                            f"{cycle}: {cut!r}"
                        )
                    merged.update(cut["replies"])
                    totals += cut["total_value"]
                    expected_totals += cut["expected_total_value"]
                report = bank.reconcile(merged)
                if not report.consistent:
                    all_consistent = False
                if totals != expected_totals:
                    raise ClusterError(
                        f"value not conserved at cut cycle {cycle}: "
                        f"{totals} != {expected_totals}"
                    )
                rounds.append(
                    {
                        "cycle": cycle,
                        "round_seq": expected_round,
                        "isps_polled": report.isps_polled,
                        "consistent": report.consistent,
                        "suspects": list(report.suspects),
                        "total_value": totals,
                        "expected_total_value": expected_totals,
                    }
                )
            if is_final:
                finals = outputs
                break
            batches_for = [[] for _ in range(config.n_shards)]
            for out in sorted(outputs, key=lambda o: o["shard"]):
                for dst, blob in out["batches"].items():
                    batches_for[dst].append(blob)
    finally:
        for handle in handles:
            handle.close()

    return _merge(config, plan, finals, rounds, all_consistent, restarts)


def _merge(
    config: ClusterConfig,
    plan: ShardPlan,
    finals: list[dict],
    rounds: list[dict],
    all_consistent: bool,
    restarts: list[int],
) -> ClusterResult:
    """Fold per-shard final states into the invariant manifest + report."""
    scenario = config.scenario
    accounting: dict[str, object] = {
        "isps": {},
        "bank_deposits": 0,
        "external_deposit": 0,
        "total_value": 0,
        "expected_total_value": 0,
    }
    events_acc = AdditiveMultisetDigest(exclude_fields=("seq",))
    ledger_acc = AdditiveMultisetDigest(include_types=LEDGER_EVENT_TYPES)
    counters: dict[str, int] = {}
    detections: list[tuple[int, int, int, int]] = []
    attempted = 0
    shard_detail: dict[str, dict] = {}
    for final in finals:
        acc = final["accounting"]
        accounting["isps"].update(acc["isps"])
        for key in (
            "bank_deposits",
            "external_deposit",
            "total_value",
            "expected_total_value",
        ):
            accounting[key] += acc[key]
        for name, state in (
            ("events", events_acc),
            ("ledger", ledger_acc),
        ):
            piece = AdditiveMultisetDigest()
            piece.load_state(final["digests"][name])
            state.merge(piece)
        for name, value in final["counters"].items():
            counters[name] = counters.get(name, 0) + value
        detections.extend(tuple(d) for d in final["detections"])
        attempted += final["attempted"]
        shard_detail[str(final["shard"])] = {
            "isps": sorted(plan.shard_isps(final["shard"])),
            "attempted": final["attempted"],
            "exported": final["exported"],
            "imported": final["imported"],
            "restored": final["restored"],
            "events_digest": final["digests"]["events"],
            "ledger_digest": final["digests"]["ledger"],
        }
    detections.sort()
    conserved = (
        accounting["total_value"] == accounting["expected_total_value"]
    )

    balances_digest = invariant_accounting_digest(accounting)
    exporter = MetricsExporter()
    exporter.add_static("zmail", counters)

    manifest = RunManifest(
        seed=scenario.seed,
        config_digest=config_digest(scenario.config),
        event_count=events_acc.count,
        event_digest=events_acc.digest(),
        metrics_digest=exporter.digest(),
        extra={
            # Shard-count-invariant facts only: nothing here may depend
            # on n_shards, mode, restarts or scheduling — these bytes
            # are the cmp oracle for shard invariance.
            "runtime": "cluster",
            "n_isps": scenario.n_isps,
            "users_per_isp": scenario.users_per_isp,
            "duration": scenario.duration,
            "reconcile_every": scenario.reconcile_every,
            "epoch_len": config.epoch_len,
            "sends_attempted": attempted,
            "balances_digest": balances_digest,
            "ledger_event_count": ledger_acc.count,
            "ledger_digest": ledger_acc.digest(),
            "total_value": accounting["total_value"],
            "expected_total_value": accounting["expected_total_value"],
            "conserved": conserved,
            "rounds": len(rounds),
            "all_consistent": all_consistent,
            "zombies_detected": len(detections),
        },
    )
    report = {
        "n_shards": config.n_shards,
        "mode": config.mode,
        "traced": config.traced,
        "epoch_len": config.epoch_len,
        "cycles": round(scenario.duration / config.epoch_len),
        "assignment": list(plan.assignment),
        "restarts": restarts,
        "shards": shard_detail,
        "rounds": rounds,
        "manifest_digest": manifest.digest(),
    }
    return ClusterResult(
        manifest=manifest,
        report=report,
        accounting=accounting,
        detections=detections,
        rounds=rounds,
    )
