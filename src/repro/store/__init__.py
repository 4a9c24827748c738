"""Durable storage for Zmail deployments — the one crash-recovery format.

``repro.store`` keeps a deployment's money durable across process
lifetimes: a checksummed SQLite (WAL) key-value journal
(:mod:`backend`, row codec in :mod:`codec`) and a genesis+deltas
persistence scheme with dirty-user tracking so restarts cost O(dirty),
not O(users) (:mod:`network`). Every restart path reads a
:class:`DurableStore`: the SMTP service and ``repro selftest``, the
soak's commit cuts, a crashed chaos node (:mod:`repro.chaos.crash`)
and a respawned cluster shard (:mod:`repro.cluster.worker`).

Higher layers are imported by full path to keep this package root
dependency-light: :mod:`repro.store.wire` (payload codecs for retry
queues), :mod:`repro.store.soak` (the crash/restart soak driver with
its in-memory differential oracle) and :mod:`repro.store.service` (the
long-running SMTP service and the ``repro selftest`` ops check).
"""

from .backend import DurableStore
from .codec import STORE_FORMAT_VERSION, record_checksum
from .network import (
    DirtyTracker,
    attach_tracker,
    commit_network,
    durable_digest,
    init_store,
    load_network,
    restore_network,
)

__all__ = [
    "DurableStore",
    "STORE_FORMAT_VERSION",
    "record_checksum",
    "DirtyTracker",
    "attach_tracker",
    "commit_network",
    "durable_digest",
    "init_store",
    "load_network",
    "restore_network",
]
