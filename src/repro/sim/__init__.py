"""Discrete-event simulation substrate.

Provides the deterministic engine, virtual clock, seeded RNG streams,
FIFO network model, metrics instruments and email workload generators on
which all Zmail experiments run.
"""

from .clock import DAY, HOUR, MINUTE, MONTH, SECOND, WEEK, Clock
from .engine import Engine
from .events import Event, EventHandle
from .metrics import Counter, MetricsRegistry, summary_stats
from .network import LinkSpec, Network
from .reliable import ReliableAck, ReliableEndpoint, ReliablePayload
from .rng import SeededStreams, derive_seed
from .workload import (
    Address,
    NormalUserWorkload,
    SendRequest,
    SpamCampaignWorkload,
    TrafficKind,
    ZombieBurstWorkload,
    merge_workloads,
)

__all__ = [
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "MONTH",
    "Clock",
    "Engine",
    "Event",
    "EventHandle",
    "Counter",
    "MetricsRegistry",
    "summary_stats",
    "LinkSpec",
    "Network",
    "ReliableEndpoint",
    "ReliablePayload",
    "ReliableAck",
    "SeededStreams",
    "derive_seed",
    "Address",
    "SendRequest",
    "TrafficKind",
    "NormalUserWorkload",
    "SpamCampaignWorkload",
    "ZombieBurstWorkload",
    "merge_workloads",
]
