"""Checksummed record codec for the durable store.

Every value that crosses a process-lifetime boundary is a row in a
:class:`~repro.store.backend.DurableStore` — service barriers, a
crashed chaos node's state, a cluster shard's barrier record — and
travels as canonical compact JSON plus a SHA-256 checksum bound to the
row's kind and key. Corruption of any byte (truncation, bit flips,
appended garbage, even a flipped digit that would still parse as valid
JSON) fails the checksum and raises
:class:`~repro.errors.SimulationError` — the ledger is money, so a wrong
value is strictly worse than a loud crash.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..errors import SimulationError

__all__ = [
    "STORE_FORMAT_VERSION",
    "encode_payload",
    "decode_payload",
    "record_checksum",
]

# Version of the record / store schema itself; the journal
# *content* is additionally versioned by core.persistence.FORMAT_VERSION
# (kept in the store's meta table and checked on open).
STORE_FORMAT_VERSION = 1

_SEP = b"\x1f"  # unit separator: unambiguous kind/key/payload framing


def encode_payload(value: Any) -> str:
    """Canonical compact JSON — the byte-stable wire form of a value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def decode_payload(payload: str) -> Any:
    """Parse a payload produced by :func:`encode_payload`.

    Raises:
        SimulationError: if the payload is not valid JSON.
    """
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"corrupted store payload: {exc}") from exc


def record_checksum(kind: str, key: str, payload: str) -> str:
    """SHA-256 over (kind, key, payload) — binds a row to its identity.

    Including kind and key means a row copied onto another row's slot
    (a plausible filesystem-level corruption) also fails verification.
    """
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    digest.update(_SEP)
    digest.update(key.encode("utf-8"))
    digest.update(_SEP)
    digest.update(payload.encode("utf-8"))
    return digest.hexdigest()
