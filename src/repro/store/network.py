"""Persisting a :class:`ZmailNetwork` through the durable store.

The representation is *genesis + ever-dirty deltas*: the store's meta
table pins the deterministic genesis parameters (topology, config,
seed), and the records table holds only state that has ever diverged
from genesis — per-ISP aggregates (pool, cash, credit, compliance view,
stats; O(n_isps), rewritten every barrier), the bank ledger, the
network counters (external deposits, last midnight, bank-trade nonce
counters), and exactly the user purses the dirty tracker saw mutate
(plus every purse of an ISP a chaos crash committed). Restore therefore
costs O(n_isps + ever-dirty-users), not O(users): an ISP with a million
accounts whose hot set is 1% restarts ~100× less state.

Why the dirty superset is sound: every path that mutates a user runs
through one of the four hooked funnels (``_send_admitted`` touches
sender *and* recipient, ``_deliver_letter`` the recipient,
``fund_user`` the funded user, ``isp_midnight`` every user whose daily
counter it resets), and auto-topup happens inside the send path.
Barrier commits flush the accumulated set atomically, so after any
crash the store holds a consistent prefix: genesis plus every delta up
to the last committed barrier.

Every restart in the repository reads this format:
:func:`restore_network` (the service and ``repro selftest``, the soak's
commit cuts) builds the genesis network and :func:`load_network`
applies the deltas; a respawned cluster shard rebuilds its own slice and
calls :func:`load_network` on it directly. A chaos crash
(:mod:`repro.chaos.crash`) commits the crashed ISP's :func:`isp_puts`
(its aggregate and every materialised user) or the bank's row, and the restart
rebuilds the fresh ISP with :func:`load_isps`, the loader
:func:`load_network` applies every compliant ISP's rows with.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .. import records
from ..core import persistence
from ..core.isp import CompliantISP
from ..core.ledger import Ledger
from ..core.protocol import ZmailNetwork
from ..errors import SimulationError
from ..records import Field, List, Map, Record
from .backend import DurableStore

__all__ = [
    "DirtyTracker",
    "init_store",
    "attach_tracker",
    "aggregate_puts",
    "commit_network",
    "isp_puts",
    "restore_network",
    "load_network",
    "load_isps",
    "durable_digest",
]

_USER_KIND = "user"
_ISP_KIND = "isp"
_BANK_KIND = "bank"
_NET_KIND = "net"

#: The genesis parameters in the store's meta table, one JSON value per
#: key, passed back to :class:`ZmailNetwork` on restore.
META = Record(
    Field("n_isps", int, 0),
    Field("users_per_isp", int, 0),
    Field("seed", int),
    Field("compliant", List(bool)),
)

#: The network counters: money deposited from outside the ledger, the
#: last midnight applied and each ISP's bank-trade nonce counter.
NET = Record(
    Field("external_deposit", int, 0, attr="_external_deposit"),
    Field("last_day_seen", int, 0, attr="_last_day_seen"),
    Field("nonces", Map(int), 0, attr="nonce_counters"),
)


def _user_key(isp_id: int, user_id: int) -> str:
    return f"{isp_id}:{user_id}"


class DirtyTracker:
    """Accumulates the (isp, user) pairs mutated since the last commit."""

    __slots__ = ("dirty",)

    def __init__(self) -> None:
        self.dirty: set[tuple[int, int]] = set()

    def touch(self, isp_id: int, user_id: int) -> None:
        self.dirty.add((isp_id, user_id))

    def drain(self) -> list[tuple[int, int]]:
        """Return the dirty set in deterministic order and clear it."""
        pairs = sorted(self.dirty)
        self.dirty.clear()
        return pairs


def attach_tracker(network: ZmailNetwork) -> DirtyTracker:
    """Install a fresh :class:`DirtyTracker` on ``network``'s touch hook."""
    tracker = DirtyTracker()
    network.set_touch_hook(tracker.touch)
    return tracker


def init_store(store: DurableStore, network: ZmailNetwork) -> None:
    """Write the genesis metadata for ``network`` into a fresh store.

    Must run before the first :func:`commit_network`; ``network`` should
    still be at (or near) genesis — any pre-existing divergence is
    captured as a full barrier-0 commit of every aggregate plus the
    bank, with no user assumed dirty.
    """
    compliant = [
        isp_id in network.compliant_isps() for isp_id in range(network.n_isps)
    ]
    genesis = records.dump(
        META, (network.n_isps, network.users_per_isp, network.seed, compliant)
    )
    store.commit(
        aggregate_puts(network),
        barrier=0,
        meta={
            "journal_format_version": str(persistence.FORMAT_VERSION),
            **{name: json.dumps(value) for name, value in genesis.items()},
            "config": json.dumps(
                persistence.config_state(network.config), sort_keys=True
            ),
        },
    )


def aggregate_puts(network: ZmailNetwork) -> list[tuple[str, str, Any]]:
    """The rows every barrier rewrites: each compliant ISP's aggregate,
    the bank and the network counters."""
    puts: list[tuple[str, str, Any]] = [
        (_ISP_KIND, str(isp_id), persistence.isp_aggregate_state(isp))
        for isp_id, isp in sorted(network.compliant_isps().items())
    ]
    puts.append((_BANK_KIND, "bank", network.bank.state_dict()))
    puts.append((_NET_KIND, "net", records.dump(NET, network)))
    return puts


def isp_puts(isp: CompliantISP) -> list[tuple[str, str, Any]]:
    """One compliant ISP's rows: its aggregate and one row per
    materialised user (a chaos crash commits these). A pristine user
    needs no row: the fresh ISP a restart loads them into holds it
    through the same lazy genesis, so a crash is O(hot set)."""
    isp_id = isp.isp_id
    puts: list[tuple[str, str, Any]] = [
        (_ISP_KIND, str(isp_id), persistence.isp_aggregate_state(isp))
    ]
    puts.extend(
        (_USER_KIND, _user_key(isp_id, user.user_id), persistence.user_state(user))
        for user in isp.ledger.materialized_users()
    )
    return puts


def commit_network(
    store: DurableStore,
    network: ZmailNetwork,
    tracker: DirtyTracker,
    *,
    barrier: int,
    extra: list[tuple[str, str, Any]] | None = None,
    aggregates: list[tuple[str, str, Any]] | None = None,
) -> int:
    """Write-ahead commit at one barrier point; returns records written.

    One WAL transaction covering the O(n_isps) aggregates, the bank,
    the conservation counter, the drained dirty user set, and any
    ``extra`` caller records (e.g. the service layer's pending gateway
    queues) that must land atomically with the same barrier;
    ``aggregates`` are the :func:`aggregate_puts` rows if the caller
    built them already. Read-only
    with respect to the simulation: no engine state, RNG draw or event
    ordering is perturbed, so a run with periodic commits stays
    bit-identical to one without.
    """
    puts = list(aggregates) if aggregates is not None else aggregate_puts(network)
    if extra:
        puts.extend(extra)
    compliant = network.compliant_isps()
    for isp_id, user_id in tracker.drain():
        isp = compliant.get(isp_id)
        if isp is None:
            continue  # non-compliant ISPs keep no durable ledger
        puts.append(
            (
                _USER_KIND,
                _user_key(isp_id, user_id),
                persistence.user_state(isp.ledger.user(user_id)),
            )
        )
    written = store.commit(puts, barrier=barrier)
    tracer = network.tracer
    if tracer.enabled:
        tracer.emit("store.commit", barrier=barrier, records=written)
    network.metrics.counter("store.commits").increment()
    network.metrics.counter("store.records_written").increment(written)
    return written


def restore_network(store: DurableStore, *, tracer=None) -> ZmailNetwork:
    """Rebuild a direct-mode network from the store: the genesis its
    meta pins, then :func:`load_network`. Cost is
    O(n_isps + ever-dirty-users)."""
    try:
        raw = {f.name: json.loads(store.meta_require(f.name)) for f in META.fields}
        config_blob = json.loads(store.meta_require("config"))
    except json.JSONDecodeError as exc:
        raise SimulationError(f"corrupted store metadata: {exc}") from exc
    genesis = records.load(META, raw, "store metadata", "meta")
    config = persistence.config_from_state(config_blob)
    try:
        network = ZmailNetwork(**genesis, config=config, tracer=tracer)
    except ValueError as exc:
        raise SimulationError(f"malformed store metadata: {exc}") from exc
    load_network(store, network)
    return network


def load_network(store: DurableStore, network: ZmailNetwork) -> None:
    """Apply the store's deltas onto ``network``, the genesis the store
    was initialised from, in place. Every record read is
    checksum-verified; any corruption raises ``SimulationError``."""
    journal_version = store.meta_require("journal_format_version")
    if journal_version != str(persistence.FORMAT_VERSION):
        raise SimulationError(
            f"store journal format {journal_version!r} does not match "
            f"persistence.FORMAT_VERSION {persistence.FORMAT_VERSION}"
        )
    bank_blob = store.get(_BANK_KIND, "bank")
    if bank_blob is None:
        raise SimulationError("store holds no bank ledger")
    network.bank.load_state(bank_blob)
    net_blob = store.get(_NET_KIND, "net")
    if net_blob is None:
        raise SimulationError("store holds no network counters")
    records.load_into(NET, network, net_blob, "network counters", "net")
    applied = load_isps(store, network, network.compliant_isps())
    if network.tracer.enabled:
        network.tracer.emit(
            "store.restore", barrier=store.barrier, records=applied
        )
    network.metrics.counter("store.restores").increment()
    network.metrics.counter("store.records_read").increment(applied)


def load_isps(
    store: DurableStore, network: ZmailNetwork, isps: dict[int, CompliantISP]
) -> int:
    """Apply the store's ``isp`` and ``user`` rows of ``isps`` in place
    and return how many were applied.

    ``isps`` maps ids of ``network``'s compliant ISPs to the objects to
    load: all of them on a restore, one fresh ISP on a chaos restart.
    Rows of the network's other compliant ISPs are skipped. Raises
    ``SimulationError`` on a row naming a non-compliant ISP, a malformed
    row, or an ISP of ``isps`` with no aggregate row.
    """
    compliant = network.compliant_isps()
    loaded: set[int] = set()
    for key, state in store.iter_kind(_ISP_KIND):
        isp_id = int(key) if key.isdecimal() else None
        isp = isps.get(isp_id)
        if isp is None:
            if isp_id not in compliant:
                raise SimulationError(
                    f"store holds an aggregate for non-compliant isp {key!r}"
                )
            continue
        persistence.load_isp_aggregate_state(isp, state)
        loaded.add(isp_id)
    missing = sorted(isps.keys() - loaded)
    if missing:
        raise SimulationError(f"store holds no aggregate for isp{missing[0]}")
    applied = len(loaded)
    for key, state in store.iter_kind(_USER_KIND):
        try:
            isp_part, user_part = key.split(":")
            isp_id, user_id = int(isp_part), int(user_part)
        except ValueError as exc:
            raise SimulationError(f"malformed user record key {key!r}") from exc
        isp = isps.get(isp_id)
        if isp is None:
            if isp_id not in compliant:
                raise SimulationError(
                    f"store holds a user record for non-compliant isp{isp_id}"
                )
            continue
        persistence.load_user_state(isp, user_id, state)
        applied += 1
    return applied


def _user_states(ledger: Ledger) -> dict[str, Any]:
    """Every user's record keyed by id, the pristine ones from the
    genesis template: the same dict as over :meth:`Ledger.users`,
    without materialising anyone."""
    states = {
        str(user.user_id): persistence.user_state(user)
        for user in ledger.materialized_users()
    }
    genesis = ledger.genesis_template()
    if genesis is not None:
        n_users, template = genesis
        pristine = persistence.user_state(template)
        for user_id in range(n_users):
            states.setdefault(str(user_id), pristine)
    return states


def durable_digest(network: ZmailNetwork) -> str:
    """SHA-256 over exactly the state the store persists.

    The recovery-equivalence oracle: after a crash mid-run,
    ``durable_digest(restore_network(store))`` must equal the live
    network's digest at the same barrier. Unlike
    ``obs.manifest.accounting_digest`` this excludes volatile
    quantities (paid letters in flight) that a restart legitimately
    zeroes. Pristine users are hashed from the genesis template, so the
    call materialises no account.
    """
    state = {
        **records.dump(NET, network),
        "bank": network.bank.state_dict(),
        "isps": {
            str(isp_id): {
                **persistence.isp_aggregate_state(isp),
                "users": _user_states(isp.ledger),
            }
            for isp_id, isp in sorted(network.compliant_isps().items())
        },
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
