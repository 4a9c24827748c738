"""The event taxonomy: every trace event type and its required fields.

The schema is deliberately *open*: an event must carry the envelope
(``t``, ``seq``, ``type``) plus the required fields for its type, and may
carry extra fields — new detail can be added without a format-version
bump. Unknown *types* are rejected, because a typo'd type would silently
fall out of every ``include_types`` filter (the chaos differential test
depends on those filters being exhaustive).

See DESIGN.md §Observability for the prose taxonomy.
"""

from __future__ import annotations

import json
from typing import Iterable

from ..errors import SimulationError

__all__ = [
    "EVENT_TYPES",
    "LEDGER_EVENT_TYPES",
    "STORE_EVENT_TYPES",
    "TraceSchemaError",
    "validate_event",
    "validate_trace_lines",
]


class TraceSchemaError(SimulationError):
    """An event violated the trace schema."""


#: type → required fields beyond the ``t``/``seq``/``type`` envelope.
EVENT_TYPES: dict[str, frozenset[str]] = {
    # protocol ledger path
    "send": frozenset({"src", "dst", "kind", "status"}),
    "deliver": frozenset({"src", "dst", "kind", "ok"}),
    "topup": frozenset({"isp", "user", "amount"}),
    "bank.trade": frozenset({"isp", "op", "amount"}),
    "midnight": frozenset({"day"}),
    "reconcile": frozenset({"method", "round", "consistent", "flagged"}),
    # overload admission layer
    "overload.shed": frozenset({"isp"}),
    "overload.defer": frozenset({"isp"}),
    "overload.bounce": frozenset({"isp", "n"}),
    "overload.retry": frozenset({"isp"}),
    # simulated network + chaos harness
    "net.drop": frozenset({"src", "dst"}),
    "fault": frozenset({"src", "dst", "action"}),
    "crash": frozenset({"node"}),
    "restart": frozenset({"node"}),
    "snapshot.round": frozenset({"round", "attempt", "outcome"}),
    "monitor.violation": frozenset({"monitor", "kind"}),
    # strategy arena — one event per tournament-match period. Economics
    # bookkeeping, not a ledger fact, so not in LEDGER_EVENT_TYPES.
    "arena.period": frozenset({"period", "attacker", "defender"}),
    # SMTP face
    "gateway.submit": frozenset({"sender", "status"}),
    "gateway.inbound": frozenset({"outcome"}),
    "gateway.bounce": frozenset({"recipient"}),
    "smtp.session": frozenset({"outcome"}),
    # durable store — bookkeeping only (see STORE_EVENT_TYPES)
    "store.commit": frozenset({"barrier", "records"}),
    "store.restore": frozenset({"barrier", "records"}),
}

#: The subset of types that describe ledger-visible outcomes — what the
#: chaos differential test compares between faulty and fault-free runs.
LEDGER_EVENT_TYPES: frozenset[str] = frozenset(
    {"send", "deliver", "topup", "bank.trade", "reconcile"}
)

#: The durable store's bookkeeping types; runs that must compare equal to
#: runs without a store exclude them from event digests.
STORE_EVENT_TYPES = ("store.commit", "store.restore")

_ENVELOPE = ("t", "seq", "type")


def validate_event(event: dict) -> None:
    """Raise :class:`TraceSchemaError` unless ``event`` is schema-valid."""
    if not isinstance(event, dict):
        raise TraceSchemaError(f"event must be a JSON object: {event!r}")
    for name in _ENVELOPE:
        if name not in event:
            raise TraceSchemaError(f"event missing envelope field {name!r}: {event!r}")
    t = event["t"]
    if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
        raise TraceSchemaError(f"event time must be a non-negative number: {event!r}")
    seq = event["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise TraceSchemaError(f"event seq must be a positive integer: {event!r}")
    etype = event["type"]
    required = EVENT_TYPES.get(etype)
    if required is None:
        raise TraceSchemaError(f"unknown event type {etype!r}: {event!r}")
    missing = required.difference(event)
    if missing:
        raise TraceSchemaError(
            f"event type {etype!r} missing required fields "
            f"{sorted(missing)}: {event!r}"
        )


def validate_trace_lines(lines: Iterable[str]) -> int:
    """Validate a JSONL trace; returns the number of events checked.

    Also enforces the stream property the per-event check cannot see:
    ``seq`` strictly increases line over line (no drops, no reordering
    in whatever produced the file).
    """
    count = 0
    last_seq = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(f"unparseable trace line {line!r}: {exc}") from exc
        validate_event(event)
        if event["seq"] <= last_seq:
            raise TraceSchemaError(
                f"trace seq not strictly increasing: {event['seq']} "
                f"after {last_seq}"
            )
        last_seq = event["seq"]
        count += 1
    return count
