"""Run manifests: the identity card that makes two runs comparable.

A manifest pins everything that *should* determine a run's observable
behaviour (seed, config digest, format versions) next to digests of what
the run actually produced (event stream, metrics). Two runs are
byte-for-byte comparable iff their manifests are equal; a mismatch tells
you *which* layer diverged (config? events? metrics?) before you diff a
single trace line.

Digest discipline: :meth:`RunManifest.digest` is computed over the
sorted-key canonical serialization, so it is **order-insensitive** with
respect to dict insertion order in ``extra`` and construction order of
fields — only the name→value mapping matters (property-tested). Wall
clock never appears in a manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .metrics_export import METRICS_FORMAT_VERSION
from .trace import TRACE_FORMAT_VERSION

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "RunManifest",
    "accounting_digest",
    "invariant_accounting",
    "invariant_accounting_digest",
    "config_digest",
]

#: Bumped when manifest fields or their digest definition change.
MANIFEST_FORMAT_VERSION = 1


def _jsonable(value):
    """Coerce config values to JSON-stable forms (enums → their value)."""
    if hasattr(value, "value") and not isinstance(value, (int, float, str, bool)):
        return value.value
    return value


def config_digest(config) -> str:
    """SHA-256 over a config dataclass's canonical field mapping (hex).

    Field order does not matter (keys are sorted); enum fields hash by
    their ``.value`` so renaming an enum *class* is not a config change
    but changing a policy is.
    """
    payload = {
        name: _jsonable(value)
        for name, value in dataclasses.asdict(config).items()
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def accounting_digest(network) -> str:
    """SHA-256 over every balance in the system, for determinism checks.

    Covers per-user (account, balance) pairs, ISP pools and cash, bank
    accounts, letters in flight and both sides of the conservation audit.
    Two runs agree on this digest iff they agree on all money movement.
    The macro benchmark, the cross-executor tests and the per-cut
    assertions of the columnar mode all compare this digest.
    """
    state: dict[str, object] = {
        "in_flight": network.paid_letters_in_flight,
        "total_value": network.total_value(),
        "expected_total_value": network.expected_total_value(),
        "bank_deposits": network.bank.total_deposits(),
        "isps": {},
    }
    for isp_id, isp in sorted(network.compliant_isps().items()):
        ledger = isp.ledger
        state["isps"][str(isp_id)] = {
            "users": [
                (u.user_id, u.account, u.balance) for u in ledger.users()
            ],
            "pool": ledger.pool,
            "cash": ledger.cash,
            "bank_account": network.bank.account_balance(isp_id),
        }
    blob = json.dumps(state, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def invariant_accounting(network) -> dict[str, object]:
    """Every balance in the system, in the cluster's mergeable shape.

    A single-process run and each cluster shard build this same dict;
    :func:`repro.cluster.runtime._merge` unions the ``isps`` maps and
    sums the totals, so a merged cluster run digests identically to a
    single-process one. (:func:`accounting_digest` tracks in-flight
    letters too; quiesced cross-executor comparison needs the
    shard-mergeable subset.)
    """
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
    return accounting


def invariant_accounting_digest(accounting: dict[str, object]) -> str:
    """SHA-256 over an :func:`invariant_accounting` dict (canonical JSON)."""
    blob = json.dumps(accounting, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to decide whether two runs are the same run."""

    seed: int
    config_digest: str
    event_count: int
    event_digest: str
    metrics_digest: str
    trace_format_version: int = TRACE_FORMAT_VERSION
    metrics_format_version: int = METRICS_FORMAT_VERSION
    manifest_format_version: int = MANIFEST_FORMAT_VERSION
    extra: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """A plain dict with ``extra`` flattened under ``extra.``."""
        doc: dict[str, object] = {
            "seed": self.seed,
            "config_digest": self.config_digest,
            "event_count": self.event_count,
            "event_digest": self.event_digest,
            "metrics_digest": self.metrics_digest,
            "trace_format_version": self.trace_format_version,
            "metrics_format_version": self.metrics_format_version,
            "manifest_format_version": self.manifest_format_version,
        }
        for name, value in self.extra.items():
            doc[f"extra.{name}"] = value
        return doc

    def to_json(self) -> str:
        """Pretty, sorted serialization (ends with a newline) — the byte
        form ``repro run --manifest`` writes and CI compares with ``cmp``."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def digest(self) -> str:
        """SHA-256 over the canonical (sorted, compact) manifest bytes."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
