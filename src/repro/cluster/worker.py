"""One shard worker: a ZmailNetwork slice driven in epoch lockstep.

A :class:`ShardWorker` owns the ISPs its :class:`ShardSpec` assigns to
it — materialized as real :class:`~repro.core.isp.CompliantISP` /
``NonCompliantISP`` nodes, with every other ISP a
:class:`~repro.core.isp.RemoteISP` placeholder — plus its own bank
slice, metrics registry, optional tracer and workload slice. Workers
never talk to each other directly; the parent forwards opaque
pre-pickled letter batches between them (star topology), so a SIGKILLed
worker can never corrupt a peer's channel.

The lockstep cycle ``k`` (virtual barrier time ``B_k = k * epoch_len``):

1. receive ``INPUTS(k)`` — peer batches from epoch ``k-1``, plus the
   reconcile and final flags;
2. **barrier work at** ``B_k``: midnight/rebalance via ``note_time``,
   then deliver the merged inbound + locally-pending letters sorted by
   ``(src_isp, seq)`` — a shard-invariant order; if a reconcile cut is
   due, assert zero letters in flight and take the §4.4 snapshot of
   every local ISP;
3. with a ``journal_dir``, commit the post-barrier state to the shard's
   durable store: the ledger deltas plus one ``shard`` record;
4. run epoch ``k``: consume workload requests with ``time <
   B_{k+1}`` strictly — boundary requests belong to the next epoch, on
   the far side of the cut;
5. send ``OUTPUTS(k)``: one tagged batch per peer shard, plus the cut
   replies when one was taken.

Determinism: every input to steps 2 and 4 is a pure function of
``(scenario, plan, epoch_len)`` — never of shard count, wall clock or
scheduling — which is why N=1, 2 and 4 shard runs merge to identical
digests. Crash recovery verifies the store and loads it into a fresh
slice with :func:`~repro.store.network.load_network`: barrier ``k``
applied, epoch ``k`` re-run from the workload position, duplicate
outputs dropped by the parent and duplicate inputs dropped here
(``cycle <= last barrier``), so every letter and ledger event lands
exactly once.

The worker contract is *sequential cycles*, not lockstep: it requires
inputs in cycle order but never that the parent wait for its peers.
The bounded-lag drive (``ClusterConfig.lag >= 1``) exploits exactly
that — it pipelines up to K cycles of inputs into the channel while
other shards trail behind, and because each ``INPUTS(k)`` still carries
every peer's epoch ``k-1`` batch, the state evolution (and so every
digest) is bit-identical to the lockstep drive.
"""

from __future__ import annotations

import collections
import itertools
import os
import pickle
from dataclasses import dataclass

from ..core.protocol import ZmailNetwork
from ..core.scenario import Scenario
from ..core.zombie import ZombieMonitor
from ..errors import SimulationError
from ..obs.schema import LEDGER_EVENT_TYPES, STORE_EVENT_TYPES
from ..obs.trace import AdditiveMultisetDigest, DigestSink, TraceRecorder
from ..sim.rng import SeededStreams, derive_seed
from ..sim.workload import merge_workloads
from .links import (
    InterShardLink,
    LetterSequencer,
    ShardOutbox,
    decode_letter,
    encode_letter,
)

__all__ = ["ShardSpec", "ShardWorker", "worker_entry"]

_SHARD_KIND = "shard"


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs — picklable for spawn start-up."""

    shard_id: int
    n_shards: int
    scenario: Scenario
    assignment: tuple[int, ...]  # isp_id -> shard_id (from the planner)
    epoch_len: float
    total_cycles: int
    journal_dir: str | None = None
    traced: bool = True

    @property
    def local_isps(self) -> frozenset[int]:
        return frozenset(
            isp_id
            for isp_id, shard in enumerate(self.assignment)
            if shard == self.shard_id
        )

    @property
    def journal_path(self) -> str | None:
        if self.journal_dir is None:
            return None
        return os.path.join(self.journal_dir, f"shard{self.shard_id}.db")


class ShardWorker:
    """The shard state machine; transport-agnostic (see :func:`worker_entry`)."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.local = spec.local_isps
        scenario = spec.scenario
        self._peers = [
            s for s in range(spec.n_shards) if s != spec.shard_id
        ]
        # Timestamps in worker traces are shard-invariant by construction
        # (sends at request time, barrier work at B_k), so the full-event
        # accumulator keeps them and drops only the per-worker seq.
        # "midnight" is per-*network* control chatter — every shard emits
        # an identical copy at each day boundary, so it is the one event
        # type whose multiset would scale with shard count.
        # The store's bookkeeping events exist only when journaling.
        self.events_acc = AdditiveMultisetDigest(
            exclude_types=("midnight", *STORE_EVENT_TYPES),
            exclude_fields=("seq",),
        )
        self.ledger_acc = AdditiveMultisetDigest(
            include_types=LEDGER_EVENT_TYPES
        )
        tracer = None
        if spec.traced:
            tracer = TraceRecorder(
                sink=DigestSink(self.events_acc, self.ledger_acc)
            )
        self.network = ZmailNetwork(
            n_isps=scenario.n_isps,
            users_per_isp=scenario.users_per_isp,
            compliant=scenario.compliant,
            config=scenario.config,
            seed=derive_seed(scenario.seed, f"shard{spec.shard_id}"),
            transport=self._transport,
            local_isps=self.local,
            tracer=tracer,
        )
        for spammer in scenario.spammers:
            if spammer.war_chest:
                # No-op for remote spammers: their home shard funds them.
                self.network.fund_user(
                    spammer.address, epennies=spammer.war_chest
                )
        self._sequencer = LetterSequencer()
        self._outbox = ShardOutbox(spec.shard_id, self._peers)
        self._links = {s: InterShardLink(s) for s in self._peers}
        self._pending_local: list[tuple[int, int, object]] = []
        self._pending_cut: dict | None = None
        self._pending_outputs: dict | None = None
        self._last_barrier = -1
        self.round_seq = 0
        self.attempted = 0
        self.exported = 0
        self.imported = 0
        self.restored = False
        self._requests = merge_workloads(
            *scenario.workload_streams(
                SeededStreams(scenario.seed), sender_isps=self.local
            )
        )
        self._next_request = next(self._requests, None)

        self._store = self._tracker = None
        path = spec.journal_path
        if path is not None:
            # Imported here: a worker that does not journal loads no store.
            from ..store.backend import DurableStore
            from ..store.network import attach_tracker, init_store

            self._tracker = attach_tracker(self.network)
            if os.path.exists(path):  # a respawn: resume from the store
                self._store = DurableStore.open(path)
                self._restore()
            else:
                self._store = DurableStore.create(path)
                init_store(self._store, self.network)

    # -- transport hook (called by the network for every cross-ISP letter) --

    def _transport(self, letter) -> None:
        seq = self._sequencer.stamp(letter.src_isp)
        dst_shard = self.spec.assignment[letter.dst_isp]
        if dst_shard == self.spec.shard_id:
            # Local cross-ISP mail waits for the barrier too: delivery
            # timing must not depend on whether the peer shares a shard.
            self._pending_local.append((letter.src_isp, seq, letter))
        else:
            self._outbox.add(dst_shard, encode_letter(letter, seq))
            if letter.paid:
                # The value travels with the letter; the importing shard
                # re-books it before delivery.
                self.network.paid_letters_in_flight -= 1
            self.exported += 1

    # -- the lockstep cycle ------------------------------------------------

    def take_pending_outputs(self) -> dict | None:
        """Outputs regenerated during a store restore (send-first)."""
        outputs, self._pending_outputs = self._pending_outputs, None
        return outputs

    def handle_inputs(self, msg: dict) -> dict | None:
        """Process one ``INPUTS`` message; returns outputs or ``None``.

        ``None`` means the message was a stale duplicate (the parent
        resends the last inputs after a respawn) and was ignored.
        """
        cycle = msg["cycle"]
        if cycle <= self._last_barrier:
            return None
        if cycle != self._last_barrier + 1:
            raise SimulationError(
                f"shard {self.spec.shard_id}: expected inputs for cycle "
                f"{self._last_barrier + 1}, got {cycle}"
            )
        self._apply_barrier(cycle, msg["batches"], cut=msg["reconcile"])
        self._last_barrier = cycle
        if msg["final"]:
            return self._final_outputs()
        self._commit_barrier()
        return self._run_epoch()

    def _apply_barrier(
        self, cycle: int, blobs: list[bytes], *, cut: bool
    ) -> None:
        barrier_time = cycle * self.spec.epoch_len
        network = self.network
        # Midnight/rebalance first: it commutes with the deliveries below
        # (disjoint state) and stamps them all at exactly t = B_k.
        network.note_time(barrier_time)
        merged: list[tuple[int, int, object, bool]] = []
        for blob in blobs:
            batch = pickle.loads(blob)
            letters = self._links[batch["src_shard"]].accept(batch)
            if letters is None:
                continue  # duplicate from a restarted peer
            for wire in letters:
                seq, letter = decode_letter(wire)
                merged.append((letter.src_isp, seq, letter, True))
        for src_isp, seq, letter in self._pending_local:
            merged.append((src_isp, seq, letter, False))
        self._pending_local = []
        merged.sort(key=lambda item: (item[0], item[1]))
        for _src, _seq, letter, is_import in merged:
            if is_import:
                self.imported += 1
                if letter.paid:
                    network.paid_letters_in_flight += 1
            network.deliver_transported(letter)
        if cut:
            self._take_cut()

    def _take_cut(self) -> None:
        network = self.network
        if network.paid_letters_in_flight:
            raise SimulationError(
                f"shard {self.spec.shard_id}: {network.paid_letters_in_flight} "
                "letters in flight at a barrier cut"
            )
        replies: dict[int, dict[int, int]] = {}
        for isp_id, isp in sorted(network.compliant_isps().items()):
            isp.begin_snapshot(self.round_seq)
            replies[isp_id] = isp.snapshot_reply()
            isp.resume_sending()
        self._pending_cut = {
            "round_seq": self.round_seq,
            "replies": replies,
            "total_value": network.total_value(),
            "expected_total_value": network.expected_total_value(),
        }
        self.round_seq += 1

    def _run_epoch(self) -> dict:
        cycle = self._last_barrier
        end = (cycle + 1) * self.spec.epoch_len
        network = self.network
        request = self._next_request
        # Strictly < end: a request at exactly the barrier belongs to the
        # next epoch, after the cut — the cut-consistency invariant.
        while request is not None and request.time < end:
            network.note_time(request.time)
            network.send(request.sender, request.recipient, request.kind)
            self.attempted += 1
            request = next(self._requests, None)
        self._next_request = request
        batches = self._outbox.flush(cycle)
        cut, self._pending_cut = self._pending_cut, None
        return {
            "type": "outputs",
            "shard": self.spec.shard_id,
            "cycle": cycle,
            "batches": {
                dst: pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
                for dst, batch in batches.items()
            },
            "cut": cut,
        }

    def _final_outputs(self) -> dict:
        network = self.network
        monitor = ZombieMonitor(network)
        monitor.poll()
        cut, self._pending_cut = self._pending_cut, None
        counters = network.metrics.snapshot()["counters"]
        if self._store is not None:
            self._store.close()
            self._store = None
        accounting: dict[str, object] = {
            "isps": {},
            "bank_deposits": network.bank.total_deposits(),
            "external_deposit": network._external_deposit,
            "total_value": network.total_value(),
            "expected_total_value": network.expected_total_value(),
        }
        for isp_id, isp in sorted(network.compliant_isps().items()):
            accounting["isps"][str(isp_id)] = {
                "users": [
                    [user.user_id, user.account, user.balance]
                    for user in isp.ledger.users()
                ],
                "pool": isp.ledger.pool,
                "cash": isp.ledger.cash,
                "bank_account": network.bank.account_balance(isp_id),
            }
        return {
            "type": "final",
            "shard": self.spec.shard_id,
            "cycle": self._last_barrier,
            "cut": cut,
            "accounting": accounting,
            # Store bookkeeping counters exist only when journaling.
            "counters": {
                name: value
                for name, value in counters.items()
                if not name.startswith("store.")
            },
            "digests": {
                "events": self.events_acc.state_dict(),
                "ledger": self.ledger_acc.state_dict(),
            },
            "detections": [
                [d.address.isp, d.address.user,
                 d.messages_before_block, d.daily_limit]
                for d in monitor.detections
            ],
            "attempted": self.attempted,
            "exported": self.exported,
            "imported": self.imported,
            "restored": self.restored,
        }

    # -- shard store: barrier commit / restore -----------------------------

    def _commit_barrier(self) -> None:
        if self._store is None:
            return
        from ..store.network import commit_network

        record = {
            "cycle": self._last_barrier,
            "round_seq": self.round_seq,
            "attempted": self.attempted,
            "exported": self.exported,
            "imported": self.imported,
            "counters": dict(self.network.metrics.snapshot()["counters"]),
            "letter_seq": self._sequencer.state_dict(),
            "links": {
                str(src): link.expected_epoch
                for src, link in self._links.items()
            },
            "digests": {
                "events": self.events_acc.state_dict(),
                "ledger": self.ledger_acc.state_dict(),
            },
            "pending_cut": self._pending_cut,
        }
        commit_network(
            self._store, self.network, self._tracker,
            barrier=self._last_barrier,
            extra=[(_SHARD_KIND, str(self.spec.shard_id), record)],
        )

    def _restore(self) -> None:
        from ..store.network import load_network

        store = self._store
        # The full sweep also catches a row whose kind or key was
        # corrupted, which the loader would otherwise never read.
        store.verify()
        network = self.network
        load_network(store, network)
        state = store.get(_SHARD_KIND, str(self.spec.shard_id))
        if state is None:
            return  # died before its first barrier commit: start afresh
        for name, value in state["counters"].items():
            network.metrics.counter(name).value = value
        self.attempted = int(state["attempted"])
        self.exported = int(state["exported"])
        self.imported = int(state["imported"])
        self.round_seq = int(state["round_seq"])
        self._sequencer.load_state(state["letter_seq"])
        for src_key, expected in state["links"].items():
            self._links[int(src_key)].expected_epoch = int(expected)
        self.events_acc.load_state(state["digests"]["events"])
        self.ledger_acc.load_state(state["digests"]["ledger"])
        cut = state["pending_cut"]
        if cut is not None:  # JSON turned the reply maps' int keys to str
            cut["replies"] = {
                int(isp): {int(peer): v for peer, v in reply.items()}
                for isp, reply in cut["replies"].items()
            }
            self._pending_cut = cut
        cycle = int(state["cycle"])
        self._last_barrier = cycle
        network._direct_now = cycle * self.spec.epoch_len
        # Replay the workload position. ``attempted`` requests were
        # dispatched before the commit and one more sat in the lookahead
        # buffer; the constructor already pulled request #0 into that
        # buffer, so skip ``attempted - 1`` further and re-buffer — when
        # nothing was dispatched yet the constructor's pull is already
        # the right buffer.
        if self.attempted:
            collections.deque(
                itertools.islice(self._requests, self.attempted - 1),
                maxlen=0,
            )
            self._next_request = next(self._requests, None)
        self.restored = True
        # Re-run the committed epoch; the parent drops the duplicate
        # outputs if the crash happened after they were first sent.
        self._pending_outputs = self._run_epoch()


def worker_entry(conn, spec: ShardSpec) -> None:
    """The worker message loop over any ``send``/``recv`` channel.

    Transport-agnostic on purpose: the spawn runtime passes one end of a
    ``multiprocessing.Pipe``, and the test suite drives the same loop
    from a thread so the in-process coverage tracer sees it.
    """
    worker = ShardWorker(spec)
    outputs = worker.take_pending_outputs()
    if outputs is not None:
        conn.send(outputs)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg.get("type") == "stop":
            return
        outputs = worker.handle_inputs(msg)
        if outputs is None:
            continue
        conn.send(outputs)
        if outputs["type"] == "final":
            return
