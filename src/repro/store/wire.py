"""Record shapes of the in-flight payloads the durable store persists.

Letters and snapshot messages queued in reliable endpoints (:data:`WIRE`)
and the core's deferred sends (:data:`SEND`) must survive a restart
exactly; they are passed as the ``payload`` of an endpoint or admission
journal. Kept out of ``repro.store``'s package root: this module imports
the chaos snapshot types, and :mod:`repro.chaos.crash` imports it only
inside its methods, which keeps the dependency graph acyclic.
"""

from __future__ import annotations

from ..chaos.snapshot import (
    ChaosSnapshotReply,
    ChaosSnapshotRequest,
    SnapshotAbort,
)
from ..core.transfer import Letter
from ..records import Field, List, Map, Nullable, Record, Union
from ..sim.workload import ADDRESS, TrafficKind

__all__ = ["WIRE", "SEND"]

_CONTENT = Field("content", Nullable(List(str, tuple)))

#: A reliable-endpoint frame payload, tagged by type.
WIRE = Union({
    "letter": Record(
        Field("sender", ADDRESS, 0),
        Field("recipient", ADDRESS, 0),
        Field("kind", TrafficKind),
        Field("paid", bool),
        _CONTENT,
        cls=Letter,
    ),
    "snap-req": Record(
        Field("token", int, 0), Field("quiesce", float),
        cls=ChaosSnapshotRequest,
    ),
    "snap-rep": Record(
        Field("token", int, 0), Field("isp_id", int, 0),
        Field("credit", Map(int)),
        cls=ChaosSnapshotReply,
    ),
    "snap-abort": Record(Field("token", int, 0), cls=SnapshotAbort),
})

#: A core deferred send ``(sender, recipient, kind, content)``.
SEND = Record(
    Field("sender", ADDRESS, 0),
    Field("recipient", ADDRESS, 0),
    Field("kind", TrafficKind),
    _CONTENT,
    cls=tuple,
)
