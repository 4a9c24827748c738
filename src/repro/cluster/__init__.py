"""Sharded multi-process cluster runtime: deterministic parallel Zmail.

A genuine third execution mode next to direct and engine runs: the
deployment's ISPs are hash-partitioned across N worker processes
(:mod:`~repro.cluster.planner`), each running its own
:class:`~repro.core.protocol.ZmailNetwork` slice; cross-shard mail
travels sequence-numbered inter-shard links
(:mod:`~repro.cluster.links`) under epoch-barriered virtual-time
lockstep or bounded-lag asynchrony (``ClusterConfig.lag``), with the
bank/snapshot coordinator — batch at barriers, or streaming through a
:class:`~repro.core.reconcile.StreamingReconciler` — and the digest
merge in the parent (:mod:`~repro.cluster.runtime`). Results are
bit-identical across shard counts, drive modes and schedulers —
``repro run doc.yaml --mode cluster`` at ``--shards 1`` lockstep and
``--shards 4 --lag 2`` writes the same manifest bytes — which is what makes multi-core speedup safe to take:
the parallel run *is* the sequential run.
"""

from .links import (
    BatchRouter,
    InterShardLink,
    LetterSequencer,
    ShardOutbox,
    decode_letter,
    encode_letter,
)
from .planner import ShardPlan, plan_shards, shard_of
from .runtime import ClusterConfig, ClusterError, ClusterResult, run_cluster
from .worker import ShardSpec, ShardWorker, worker_entry

__all__ = [
    "ShardPlan",
    "plan_shards",
    "shard_of",
    "encode_letter",
    "decode_letter",
    "LetterSequencer",
    "ShardOutbox",
    "InterShardLink",
    "BatchRouter",
    "ShardSpec",
    "ShardWorker",
    "worker_entry",
    "ClusterConfig",
    "ClusterError",
    "ClusterResult",
    "run_cluster",
]
