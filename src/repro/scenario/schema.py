"""The versioned scenario schema: one document describing a whole world.

A scenario document is plain data (JSON, or YAML when available) with a
``schema_version`` pin and a fixed set of sections — topology, economics,
traffic (spammers, zombies, floods), reconciliation cadence, fault
schedule, overload profile, chaos-drive parameters and cluster layout.
:func:`validate` normalizes a document into its canonical fully-defaulted
form and rejects everything else **loudly**: unknown keys at any level,
a missing or unsupported ``schema_version``, out-of-range addresses,
type mismatches and cluster layouts whose epochs cannot tile the run are
all :class:`~repro.errors.SimulationError`\\ s naming the offending path.
Silence is the one failure mode a fuzzing surface cannot afford.

Canonical form is the schema's fixed point: :func:`canonical_dump`
serializes a validated document with sorted keys and every default
materialized, and parsing that dump validates back to the identical
document (property-tested). :func:`scenario_digest` hashes those
canonical bytes, giving every world a stable identity that run manifests
pin, so a manifest names exactly which world produced it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..core.config import NonCompliantMailPolicy
from ..errors import SimulationError
from ..sim.clock import DAY, HOUR

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "ATTACKER_STRATEGIES",
    "DEFENDER_STRATEGIES",
    "validate",
    "parse",
    "load",
    "canonical_dump",
    "scenario_digest",
]

#: Bumped when sections, keys, or their meaning change. Version 2 adds
#: the optional ``strategies`` term (the arena's attacker/defender/market
#: triple); everything a version-1 document can say means the same thing
#: in version 2, and a version-1 document's canonical form is unchanged
#: (no ``strategies`` key is materialized into it).
SCHEMA_VERSION = 2

#: Every version this library still validates and runs.
SUPPORTED_VERSIONS = (1, 2)

_POLICIES = tuple(p.value for p in NonCompliantMailPolicy)
_TRAFFIC_KINDS = ("normal", "spam", "zombie")

# Every known key with (default, validator). A validator returns the
# normalized value or raises ValueError with a human reason; the walker
# wraps that into a SimulationError naming the full document path.


def _int(minimum=None, maximum=None):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValueError(f"must be <= {maximum}, got {value}")
        return value

    return check


def _number(minimum=None, *, exclusive=False):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {value!r}")
        value = float(value)
        if minimum is not None:
            if exclusive and value <= minimum:
                raise ValueError(f"must be > {minimum}, got {value}")
            if not exclusive and value < minimum:
                raise ValueError(f"must be >= {minimum}, got {value}")
        return value

    return check


def _rate():
    def check(value):
        value = _number(0.0)(value)
        if value > 1.0:
            raise ValueError(f"must be a probability in [0, 1], got {value}")
        return value

    return check


def _string(choices=None):
    def check(value):
        if not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ValueError(f"must be one of {sorted(choices)}, got {value!r}")
        return value

    return check


def _bool(value):
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


def _int_list(value):
    if not isinstance(value, list) or any(
        isinstance(item, bool) or not isinstance(item, int) for item in value
    ):
        raise ValueError(f"expected a list of integers, got {value!r}")
    return list(value)


#: section -> key -> (default, validator). Defaults mirror the library's
#: own (core Scenario / ZmailConfig / OverloadConfig / ChaosDeployment)
#: defaults so an empty section means "what the code would have done
#: anyway".
_SECTIONS: dict[str, dict[str, tuple[Any, Any]]] = {
    "topology": {
        "n_isps": (3, _int(1)),
        "users_per_isp": (10, _int(1)),
        "noncompliant": ([], _int_list),
    },
    "economics": {
        "default_daily_limit": (200, _int(0)),
        "default_user_balance": (100, _int(0)),
        "default_user_account": (500, _int(0)),
        "initial_pool": (10_000, _int(0)),
        "minavail": (2_000, _int(0)),
        "maxavail": (50_000, _int(0)),
        "initial_bank_account": (1_000_000, _int(0)),
        "snapshot_quiesce_seconds": (600.0, _number(0.0)),
        "reconciliation_period": (30 * DAY, _number(0.0, exclusive=True)),
        "noncompliant_policy": ("deliver", _string(_POLICIES)),
        "auto_topup_amount": (50, _int(0)),
        "use_crypto": (False, _bool),
    },
    "traffic": {
        "duration": (5 * DAY, _number(0.0, exclusive=True)),
        "normal_rate_per_day": (8.0, _number(0.0)),
        "spammers": ([], None),  # validated per-item below
        "zombies": ([], None),
        "floods": ([], None),
    },
    "reconcile": {
        "every": (0.0, _number(0.0)),
    },
    "faults": {
        "drop_rate": (0.0, _rate()),
        "duplicate_rate": (0.0, _rate()),
        "reorder_rate": (0.0, _rate()),
        "reorder_delay": (2.0, _number(0.0)),
        "extra_delay": (0.0, _number(0.0)),
    },
    "overload": {
        # Off by default: ``enabled: false`` means the deployment runs
        # with no admission layer at all, which is NOT the same as an
        # admission layer with default knobs.
        "enabled": (False, _bool),
        "admit_rate": (50.0, _number(0.0, exclusive=True)),
        "admit_burst": (100, _int(1)),
        "queue_capacity": (512, _int(0)),
        "retry_base": (2.0, _number(0.0, exclusive=True)),
        "retry_backoff": (2.0, _number(1.0)),
        "retry_max_interval": (120.0, _number(0.0, exclusive=True)),
        "max_retries": (4, _int(0)),
        "shed_audit_cap": (256, _int(1)),
        "breaker_failure_threshold": (3, _int(1)),
        "breaker_reset_timeout": (30.0, _number(0.0, exclusive=True)),
        "breaker_backlog_limit": (256, _int(1)),
    },
    "chaos": {
        "cell": (None, None),  # defaults to the document name
        "drain_window": (900.0, _number(0.0, exclusive=True)),
        "monitor_interval": (5.0, _number(0.0, exclusive=True)),
    },
    "cluster": {
        "shards": (1, _int(1)),
        "epoch": (HOUR, _number(0.0, exclusive=True)),
        "lag": (0, _int(0)),
    },
}

#: Item schema for the top-level ``crashes`` list (chaos drive only).
_CRASH_SCHEMA: dict[str, tuple[Any, Any]] = {
    "node": (None, _string()),
    "at": (None, _number(0.0)),
    "down_for": (None, _number(0.0, exclusive=True)),
}

_ITEM_SCHEMAS: dict[str, dict[str, tuple[Any, Any]]] = {
    "spammers": {
        "isp": (None, _int(0)),
        "user": (0, _int(0)),
        "volume": (None, _int(1)),
        "war_chest": (0, _int(0)),
        "start": (0.0, _number(0.0)),
        "duration": (DAY, _number(0.0, exclusive=True)),
    },
    "zombies": {
        "isp": (None, _int(0)),
        "user": (0, _int(0)),
        "rate_per_hour": (None, _number(0.0, exclusive=True)),
        "start": (None, _number(0.0)),
        "end": (None, _number(0.0, exclusive=True)),
    },
    "floods": {
        "attacker_isp": (None, _int(0)),
        "target_isp": (None, _int(0)),
        "rate_per_sec": (None, _number(0.0, exclusive=True)),
        "start": (0.0, _number(0.0)),
        "duration": (60.0, _number(0.0, exclusive=True)),
        "attackers": (4, _int(1)),
        "kind": ("zombie", _string(_TRAFFIC_KINDS)),
    },
}


# -- the v2 ``strategies`` term ---------------------------------------------
#
# The schema owns the strategy vocabulary: every attacker/defender name
# the arena implements, with its tunable parameters. ``repro.arena``
# registers an implementation for exactly these names (tested for
# parity), so a document naming a strategy is always runnable.

#: attacker name -> parameter schema (key -> (default, validator)).
ATTACKER_STRATEGIES: dict[str, dict[str, tuple[Any, Any]]] = {
    # Fixed-volume blaster: the PR-9-era static spammer as a strategy.
    "static": {
        "volume": (200, _int(1)),
    },
    # Multiplicative response-rate learner (AdaptiveSpammer's loop).
    "response_rate": {
        "volume": (200, _int(1)),
        "growth": (1.5, _number(1.0, exclusive=True)),
        "decay": (0.5, _number(0.0, exclusive=True)),
        "max_volume": (100_000, _int(1)),
    },
    # Rents compromised machines and drives them at full throttle; the
    # §4.1 limit + zombie monitor detect and disinfect the fleet.
    "zombie_fleet": {
        "fleet": (8, _int(1)),
        "per_machine": (0, _int(0)),  # 0 = push to the daily limit
    },
    # Sends below the detection threshold in bursts, idling between, to
    # starve the limit-warning signal the zombie monitor keys on.
    "burst_idle": {
        "fleet": (8, _int(1)),
        "burst_every": (2, _int(1)),
        "headroom": (16, _int(0)),
    },
    # Harvests the e-penny endowments of accounts at a colluding ISP by
    # washing their balances (paid sends) to a hub, then spams on the
    # harvested pennies instead of bought ones.
    "epenny_wash": {
        "colluding_isp": (-1, _int(-1)),  # -1 = highest-numbered ISP
        "volume": (200, _int(1)),
        "growth": (1.5, _number(1.0, exclusive=True)),
        "decay": (0.5, _number(0.0, exclusive=True)),
        "max_volume": (100_000, _int(1)),
        "headroom": (16, _int(0)),  # §4.1 stealth margin per account
    },
}

#: defender name -> parameter schema (key -> (default, validator)).
DEFENDER_STRATEGIES: dict[str, dict[str, tuple[Any, Any]]] = {
    # The paper's protocol exactly as configured; no reactive tuning.
    "zmail_static": {},
    # Tunes e-penny price and daily limits against observed spam share,
    # trading goodput (tight limits block legitimate mail) for control.
    "price_tuner": {
        "target_spam_share": (0.05, _number(0.0, exclusive=True)),
        "price_step": (2.0, _number(1.0, exclusive=True)),
        "max_price_multiplier": (16.0, _number(1.0)),
        "min_limit": (20, _int(1)),
        "limit_step": (2, _int(2)),
    },
    # Gardner-Stephen POW exchange: offers a proof-of-work route priced
    # in CPU-seconds, doubling difficulty while spam persists.
    "pow_exchange": {
        "base_seconds": (1.0, _number(0.0, exclusive=True)),
        "max_seconds": (64.0, _number(0.0, exclusive=True)),
        "target_spam_share": (0.05, _number(0.0, exclusive=True)),
    },
    # GridEmail-style priced priority classes: a capped bulk class at a
    # dollar price, delivered to the bulk folder (discounted responses).
    "priority_classes": {
        "bulk_price_dollars": (0.002, _number(0.0)),
        "bulk_cap": (2_000, _int(0)),
        "min_cap": (100, _int(0)),
    },
}

#: The ``strategies.market`` knobs: the dollar economy around the ledger.
_MARKET_SCHEMA: dict[str, tuple[Any, Any]] = {
    "conversion_rate": (0.0005, _rate()),
    "revenue_per_response": (25.0, _number(0.0)),
    "infra_cost_per_message": (0.0001, _number(0.0)),
    "epenny_dollars": (0.01, _number(0.0)),
    "cpu_second_dollars": (2e-05, _number(0.0)),
    "bulk_conversion_factor": (0.2, _rate()),
    # The underground economy the zombie strategies shop in: compromised
    # machines rent by the day, compromised *accounts* (with their
    # e-penny endowments) sell outright — zero-sum means washed pennies
    # were still bought by someone, and this is that price.
    "rent_per_machine_day": (0.05, _number(0.0)),
    "compromised_account_dollars": (1.0, _number(0.0)),
}


def _walk_strategy(path: str, spec, registry, extra_schema):
    """Validate one ``attacker``/``defender`` clause against the registry."""
    if not isinstance(spec, dict):
        raise SimulationError(f"scenario {path}: expected a mapping")
    name = spec.get("name")
    if name not in registry:
        raise SimulationError(
            f"scenario {path}.name: {name!r} is not a known strategy; "
            f"known strategies are {sorted(registry)}"
        )
    unknown = sorted(set(spec) - {"name", "params", *extra_schema})
    if unknown:
        raise SimulationError(
            f"scenario {path}: unknown keys {unknown}; known keys are "
            f"{sorted({'name', 'params', *extra_schema})}"
        )
    out: dict[str, Any] = {"name": name}
    for key, (default, validator) in extra_schema.items():
        value = spec.get(key, default)
        out[key] = _check(f"{path}.{key}", value, validator)
    out["params"] = _walk_section(
        f"{path}.params", spec.get("params", {}), registry[name]
    )
    return out


def _walk_strategies(section) -> dict[str, Any]:
    if not isinstance(section, dict):
        raise SimulationError("scenario strategies: expected a mapping")
    known = {"periods", "attacker", "defender", "market"}
    unknown = sorted(set(section) - known)
    if unknown:
        raise SimulationError(
            f"scenario strategies: unknown keys {unknown}; "
            f"known keys are {sorted(known)}"
        )
    for side in ("attacker", "defender"):
        if side not in section:
            raise SimulationError(f"scenario strategies.{side}: required")
    return {
        "periods": _check(
            "strategies.periods", section.get("periods", 10), _int(1)
        ),
        "attacker": _walk_strategy(
            "strategies.attacker",
            section["attacker"],
            ATTACKER_STRATEGIES,
            {"isp": (0, _int(0)), "user": (0, _int(0))},
        ),
        "defender": _walk_strategy(
            "strategies.defender", section["defender"], DEFENDER_STRATEGIES, {}
        ),
        "market": _walk_section(
            "strategies.market", section.get("market", {}), _MARKET_SCHEMA
        ),
    }


def _check(path: str, value, validator):
    try:
        return validator(value)
    except ValueError as exc:
        raise SimulationError(f"scenario {path}: {exc}") from None


def _walk_section(name: str, section, schema) -> dict[str, Any]:
    if not isinstance(section, dict):
        raise SimulationError(f"scenario {name}: expected a mapping")
    unknown = sorted(set(section) - set(schema))
    if unknown:
        raise SimulationError(
            f"scenario {name}: unknown keys {unknown}; "
            f"known keys are {sorted(schema)}"
        )
    out: dict[str, Any] = {}
    for key, (default, validator) in schema.items():
        if key in section:
            value = section[key]
            out[key] = (
                _check(f"{name}.{key}", value, validator) if validator else value
            )
        else:
            if default is None and validator is not None:
                raise SimulationError(f"scenario {name}.{key}: required")
            out[key] = default
    return out


def _walk_items(name: str, items) -> list[dict[str, Any]]:
    if not isinstance(items, list):
        raise SimulationError(f"scenario traffic.{name}: expected a list")
    return [
        _walk_section(f"traffic.{name}[{i}]", item, _ITEM_SCHEMAS[name])
        for i, item in enumerate(items)
    ]


def validate(doc: dict[str, Any]) -> dict[str, Any]:
    """Normalize ``doc`` to canonical form, or raise loudly.

    Returns a new document with every section present, every default
    materialized, and every value type-normalized. Never mutates ``doc``.
    """
    if not isinstance(doc, dict):
        raise SimulationError("scenario document must be a mapping")
    version = doc.get("schema_version")
    if version is None:
        raise SimulationError(
            "scenario document has no schema_version; "
            f"this library speaks versions {SUPPORTED_VERSIONS}"
        )
    if version not in SUPPORTED_VERSIONS:
        raise SimulationError(
            f"scenario schema_version {version!r} is not supported; "
            f"this library speaks versions {SUPPORTED_VERSIONS}"
        )
    known_top = {"schema_version", "name", "seed", "crashes", *_SECTIONS}
    if version >= 2:
        known_top.add("strategies")
    elif "strategies" in doc:
        raise SimulationError(
            "scenario strategies: requires schema_version 2 "
            f"(document declares {version})"
        )
    unknown = sorted(set(doc) - known_top)
    if unknown:
        raise SimulationError(
            f"scenario document: unknown keys {unknown}; "
            f"known keys are {sorted(known_top)}"
        )
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SimulationError("scenario name: required non-empty string")
    # Canonical form preserves the declared version: a v1 document's
    # canonical bytes (and digest) are exactly what they were before the
    # ``strategies`` term existed.
    out: dict[str, Any] = {
        "schema_version": version,
        "name": name,
        "seed": _check("seed", doc.get("seed", 0), _int()),
    }
    if version >= 2:
        strategies = doc.get("strategies")
        out["strategies"] = (
            None if strategies is None else _walk_strategies(strategies)
        )
    for section, schema in _SECTIONS.items():
        out[section] = _walk_section(section, doc.get(section, {}), schema)
    for kind in _ITEM_SCHEMAS:
        out["traffic"][kind] = _walk_items(kind, out["traffic"][kind])
    crashes = doc.get("crashes", [])
    if not isinstance(crashes, list):
        raise SimulationError("scenario crashes: expected a list")
    out["crashes"] = [
        _walk_section(f"crashes[{i}]", crash, _CRASH_SCHEMA)
        for i, crash in enumerate(crashes)
    ]
    if out["chaos"]["cell"] is not None and (
        not isinstance(out["chaos"]["cell"], str) or not out["chaos"]["cell"]
    ):
        raise SimulationError("scenario chaos.cell: expected a non-empty string")
    _cross_validate(out)
    return out


def _cross_validate(doc: dict[str, Any]) -> None:
    """Rules that span sections: address ranges, flood shape, epochs."""
    topo = doc["topology"]
    n_isps, users = topo["n_isps"], topo["users_per_isp"]
    for isp in topo["noncompliant"]:
        if not 0 <= isp < n_isps:
            raise SimulationError(
                f"scenario topology.noncompliant: ISP {isp} outside "
                f"[0, {n_isps})"
            )
    if len(set(topo["noncompliant"])) != len(topo["noncompliant"]):
        raise SimulationError(
            "scenario topology.noncompliant: duplicate ISP ids"
        )
    economics = doc["economics"]
    if economics["minavail"] > economics["maxavail"]:
        raise SimulationError(
            "scenario economics: minavail exceeds maxavail"
        )
    traffic = doc["traffic"]
    duration = traffic["duration"]
    for i, spec in enumerate(traffic["spammers"]):
        _check_address(f"traffic.spammers[{i}]", spec["isp"], spec["user"],
                       n_isps, users)
    for i, spec in enumerate(traffic["zombies"]):
        _check_address(f"traffic.zombies[{i}]", spec["isp"], spec["user"],
                       n_isps, users)
        if spec["end"] <= spec["start"]:
            raise SimulationError(
                f"scenario traffic.zombies[{i}]: end must exceed start"
            )
    for i, spec in enumerate(traffic["floods"]):
        for side in ("attacker_isp", "target_isp"):
            if not 0 <= spec[side] < n_isps:
                raise SimulationError(
                    f"scenario traffic.floods[{i}].{side}: ISP "
                    f"{spec[side]} outside [0, {n_isps})"
                )
        if spec["attacker_isp"] == spec["target_isp"]:
            raise SimulationError(
                f"scenario traffic.floods[{i}]: attacker and target "
                "must be different ISPs"
            )
    for i, crash in enumerate(doc["crashes"]):
        node = crash["node"]
        valid = node == "bank" or (
            node.startswith("isp")
            and node[3:].isdigit()
            and int(node[3:]) < n_isps
        )
        if not valid:
            raise SimulationError(
                f"scenario crashes[{i}].node: {node!r} is neither 'bank' "
                f"nor 'isp0'..'isp{n_isps - 1}'"
            )
    strategies = doc.get("strategies")
    if strategies is not None:
        attacker = strategies["attacker"]
        _check_address("strategies.attacker", attacker["isp"],
                       attacker["user"], n_isps, users)
        if strategies["periods"] * DAY > duration:
            raise SimulationError(
                f"scenario strategies.periods: {strategies['periods']} "
                f"day-long periods do not fit traffic.duration ({duration})"
            )
        if attacker["name"] == "epenny_wash":
            colluding = attacker["params"]["colluding_isp"]
            resolved = n_isps - 1 if colluding == -1 else colluding
            if not 0 <= resolved < n_isps:
                raise SimulationError(
                    f"scenario strategies.attacker.params.colluding_isp: "
                    f"ISP {colluding} outside [0, {n_isps})"
                )
            if resolved in doc["topology"]["noncompliant"]:
                raise SimulationError(
                    "scenario strategies.attacker.params.colluding_isp: "
                    f"ISP {resolved} is non-compliant — washing needs a "
                    "compliant ledger to harvest"
                )
    cluster = doc["cluster"]
    if cluster["shards"] > n_isps:
        raise SimulationError(
            f"scenario cluster.shards: {cluster['shards']} shards cannot "
            f"partition {n_isps} ISPs"
        )
    if cluster["shards"] > 1:
        epoch = cluster["epoch"]
        for label, period in (
            ("traffic.duration", duration),
            ("one day (midnight processing)", DAY),
            ("reconcile.every", doc["reconcile"]["every"]),
        ):
            if period > 0 and round(period / epoch) * epoch != period:
                raise SimulationError(
                    f"scenario cluster.epoch {epoch} does not tile "
                    f"{label} ({period}); shards would cut mid-boundary"
                )


def _check_address(path, isp, user, n_isps, users_per_isp):
    if not 0 <= isp < n_isps:
        raise SimulationError(
            f"scenario {path}.isp: ISP {isp} outside [0, {n_isps})"
        )
    if not 0 <= user < users_per_isp:
        raise SimulationError(
            f"scenario {path}.user: user {user} outside [0, {users_per_isp})"
        )


def parse(text: str, *, source: str = "<string>") -> dict[str, Any]:
    """Parse JSON (preferred) or YAML text into a canonical document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as json_err:
        import yaml

        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as yaml_err:
            raise SimulationError(
                f"{source}: parses as neither JSON ({json_err}) nor YAML "
                f"({yaml_err})"
            ) from yaml_err
    if not isinstance(doc, dict):
        raise SimulationError(f"{source}: scenario document must be a mapping")
    return validate(doc)


def load(path: str) -> dict[str, Any]:
    """Load and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), source=path)


def canonical_dump(doc: dict[str, Any]) -> str:
    """The canonical bytes of a validated document (ends with a newline).

    Sorted keys, two-space indent, every default materialized — the form
    committed under ``examples/scenarios/`` and hashed by
    :func:`scenario_digest`. ``parse(canonical_dump(d))`` is ``d`` for
    any validated ``d`` (property-tested round-trip identity).
    """
    return json.dumps(validate(doc), sort_keys=True, indent=2) + "\n"


def scenario_digest(doc: dict[str, Any]) -> str:
    """SHA-256 over the canonical document bytes — the world's identity."""
    canonical = json.dumps(
        validate(doc), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
