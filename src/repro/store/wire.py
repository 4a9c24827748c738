"""JSON codecs for the in-flight payloads the durable store persists.

The retry machinery holds live objects — :class:`Letter` frames queued
in reliable endpoints, ``(sender, recipient, kind, content)`` tuples in
admission deferred queues, snapshot control messages — that must survive
a process restart. This module maps each to a tagged JSON-compatible
dict and back, exactly (the chaos differential asserts a restored run is
bit-identical to an uninterrupted one, so lossy encoding would show up
immediately).

Kept out of ``repro.store``'s package root: it imports the chaos
snapshot types, and :mod:`repro.chaos.crash` imports the store backend
at module level — the split keeps the dependency graph acyclic (the
crash controller imports this module only inside its methods).
"""

from __future__ import annotations

from typing import Any

from ..chaos.snapshot import (
    ChaosSnapshotReply,
    ChaosSnapshotRequest,
    SnapshotAbort,
)
from ..core.transfer import Letter
from ..errors import SimulationError
from ..sim.workload import Address, TrafficKind

__all__ = ["encode_wire", "decode_wire", "encode_send", "decode_send"]


def _encode_address(address: Address) -> list[int]:
    return [address.isp, address.user]


def _decode_address(blob: Any) -> Address:
    return Address(int(blob[0]), int(blob[1]))


def encode_wire(payload: object) -> dict[str, Any]:
    """Encode one reliable-endpoint payload to a tagged JSON dict.

    Raises:
        SimulationError: for payload types that never belong in a
            durable queue (programming error, better loud than lossy).
    """
    if isinstance(payload, Letter):
        return {
            "t": "letter",
            "sender": _encode_address(payload.sender),
            "recipient": _encode_address(payload.recipient),
            "kind": payload.kind.value,
            "paid": payload.paid,
            "content": (
                list(payload.content) if payload.content is not None else None
            ),
        }
    if isinstance(payload, ChaosSnapshotRequest):
        return {"t": "snap-req", "token": payload.token, "quiesce": payload.quiesce}
    if isinstance(payload, ChaosSnapshotReply):
        return {
            "t": "snap-rep",
            "token": payload.token,
            "isp_id": payload.isp_id,
            "credit": {str(k): v for k, v in sorted(payload.credit.items())},
        }
    if isinstance(payload, SnapshotAbort):
        return {"t": "snap-abort", "token": payload.token}
    raise SimulationError(
        f"cannot persist wire payload of type {type(payload).__name__}"
    )


def decode_wire(blob: Any) -> object:
    """Decode :func:`encode_wire` output back to the live payload type.

    Raises:
        SimulationError: if the blob is malformed or carries an unknown
            tag.
    """
    try:
        tag = blob["t"]
        if tag == "letter":
            content = blob["content"]
            return Letter(
                sender=_decode_address(blob["sender"]),
                recipient=_decode_address(blob["recipient"]),
                kind=TrafficKind(blob["kind"]),
                paid=bool(blob["paid"]),
                content=tuple(content) if content is not None else None,
            )
        if tag == "snap-req":
            return ChaosSnapshotRequest(
                token=int(blob["token"]), quiesce=float(blob["quiesce"])
            )
        if tag == "snap-rep":
            return ChaosSnapshotReply(
                token=int(blob["token"]),
                isp_id=int(blob["isp_id"]),
                credit={int(k): int(v) for k, v in blob["credit"].items()},
            )
        if tag == "snap-abort":
            return SnapshotAbort(token=int(blob["token"]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SimulationError(f"malformed wire payload: {exc}") from exc
    raise SimulationError(f"unknown wire payload tag {tag!r}")


def encode_send(payload: object) -> dict[str, Any]:
    """Encode a core deferred-send tuple ``(sender, recipient, kind, content)``."""
    try:
        sender, recipient, kind, content = payload  # type: ignore[misc]
        return {
            "sender": _encode_address(sender),
            "recipient": _encode_address(recipient),
            "kind": kind.value,
            "content": list(content) if content is not None else None,
        }
    except (TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(
            f"cannot persist deferred send payload: {exc}"
        ) from exc


def decode_send(blob: Any) -> tuple[Address, Address, TrafficKind, tuple | None]:
    """Decode :func:`encode_send` output back to the live tuple."""
    try:
        content = blob["content"]
        return (
            _decode_address(blob["sender"]),
            _decode_address(blob["recipient"]),
            TrafficKind(blob["kind"]),
            tuple(content) if content is not None else None,
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SimulationError(f"malformed deferred send payload: {exc}") from exc
