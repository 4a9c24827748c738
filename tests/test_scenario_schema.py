"""Schema property tests: canonical form is a fixed point, errors are loud.

The scenario schema's contract: ``validate`` normalizes any accepted
document into canonical fully-defaulted form (idempotent, and identical
after a dump/parse round trip), and rejects everything else with a
:class:`SimulationError` naming the offending path. The generator's
contract: every seed maps to one valid world, deterministically.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.scenario import (
    SCHEMA_VERSION,
    canonical_dump,
    generate_doc,
    parse,
    scenario_digest,
    validate,
)
from repro.sim.clock import DAY, HOUR

SCHEMA_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def base_doc(**overrides):
    """A small valid document; keyword overrides replace whole sections."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": "unit",
        "seed": 3,
        "topology": {"n_isps": 3, "users_per_isp": 4},
        "traffic": {"duration": 6 * HOUR, "normal_rate_per_day": 4.0},
    }
    doc.update(overrides)
    return doc


# -- canonical form ----------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
@SCHEMA_SETTINGS
def test_generated_worlds_round_trip_identically(seed):
    doc = generate_doc(seed)
    assert validate(doc) == doc, "validate must be idempotent"
    assert parse(canonical_dump(doc)) == doc, "dump/parse must round-trip"
    assert scenario_digest(doc) == scenario_digest(parse(canonical_dump(doc)))


@given(seed=st.integers(0, 2**32 - 1))
@SCHEMA_SETTINGS
def test_generator_is_deterministic(seed):
    assert generate_doc(seed) == generate_doc(seed)


def test_defaults_are_materialized():
    doc = validate(base_doc())
    assert doc["economics"]["default_daily_limit"] == 200
    assert doc["economics"]["reconciliation_period"] == 30 * DAY
    assert doc["traffic"]["spammers"] == []
    assert doc["reconcile"]["every"] == 0.0
    assert doc["faults"]["drop_rate"] == 0.0
    assert doc["overload"]["enabled"] is False
    assert doc["chaos"]["drain_window"] == 900.0
    assert doc["cluster"] == {"shards": 1, "epoch": HOUR, "lag": 0}
    assert doc["crashes"] == []


def test_yaml_and_json_parse_to_the_same_document():
    yaml_text = (
        "schema_version: 1\n"
        "name: unit\n"
        "seed: 3\n"
        "topology:\n  n_isps: 3\n  users_per_isp: 4\n"
        "traffic:\n  duration: 21600.0\n  normal_rate_per_day: 4.0\n"
    )
    assert parse(yaml_text) == validate(base_doc(schema_version=1))


def test_digest_tracks_content_not_key_order():
    doc = base_doc()
    reordered = dict(reversed(list(doc.items())))
    assert scenario_digest(doc) == scenario_digest(reordered)
    other = base_doc(seed=4)
    assert scenario_digest(doc) != scenario_digest(other)


# -- loud rejection ----------------------------------------------------------


@pytest.mark.parametrize(
    "mutate, pattern",
    [
        (lambda d: d.pop("schema_version"), "no schema_version"),
        (lambda d: d.update(schema_version=99), "not supported"),
        (lambda d: d.pop("name"), "name: required"),
        (lambda d: d.update(name=""), "name: required"),
        (lambda d: d.update(wat=1), "unknown keys.*wat"),
        (lambda d: d["topology"].update(wat=1), "topology: unknown keys"),
        (lambda d: d["topology"].update(n_isps="three"),
         "topology.n_isps: expected an integer"),
        (lambda d: d["topology"].update(n_isps=0), "must be >= 1"),
        (lambda d: d["topology"].update(noncompliant=[7]),
         "noncompliant: ISP 7 outside"),
        (lambda d: d["topology"].update(noncompliant=[1, 1]),
         "duplicate ISP ids"),
        (lambda d: d.update(economics={"minavail": 9, "maxavail": 1}),
         "minavail exceeds maxavail"),
        (lambda d: d.update(
            economics={"noncompliant_policy": "vaporize"}),
         "noncompliant_policy: must be one of"),
        (lambda d: d["traffic"].update(duration=0), "must be > 0"),
        (lambda d: d["traffic"].update(spammers={}), "expected a list"),
        (lambda d: d["traffic"].update(spammers=[{"user": 0, "volume": 5}]),
         r"spammers\[0\].isp: required"),
        (lambda d: d["traffic"].update(
            spammers=[{"isp": 9, "volume": 5}]),
         r"spammers\[0\].isp: ISP 9 outside"),
        (lambda d: d["traffic"].update(
            zombies=[{"isp": 0, "user": 9, "rate_per_hour": 5.0,
                      "start": 0.0, "end": 60.0}]),
         r"zombies\[0\].user: user 9 outside"),
        (lambda d: d["traffic"].update(
            zombies=[{"isp": 0, "rate_per_hour": 5.0,
                      "start": 60.0, "end": 60.0}]),
         "end must exceed start"),
        (lambda d: d["traffic"].update(
            floods=[{"attacker_isp": 1, "target_isp": 1,
                     "rate_per_sec": 2.0}]),
         "attacker and target"),
        (lambda d: d["traffic"].update(
            floods=[{"attacker_isp": 1, "target_isp": 5,
                     "rate_per_sec": 2.0}]),
         r"floods\[0\].target_isp: ISP 5 outside"),
        (lambda d: d["traffic"].update(
            floods=[{"attacker_isp": 0, "target_isp": 1,
                     "rate_per_sec": 2.0, "kind": "friendly"}]),
         "kind: must be one of"),
        (lambda d: d.update(
            faults={"drop_rate": 1.5}), "probability"),
        (lambda d: d.update(
            overload={"enabled": "yes"}), "expected a boolean"),
        (lambda d: d.update(
            crashes=[{"node": "isp9", "at": 1.0, "down_for": 1.0}]),
         "neither 'bank' nor"),
        (lambda d: d.update(
            crashes=[{"node": "router", "at": 1.0, "down_for": 1.0}]),
         "neither 'bank' nor"),
        (lambda d: d.update(
            crashes=[{"node": "isp1", "at": 150.0, "down_for": 30.0},
                     {"node": "bank", "at": 130.0, "down_for": 60.0},
                     {"node": "isp1", "at": 120.0, "down_for": 60.0}]),
         r"crashes\[0\]: 'isp1' crashes at 150.0 while still down"),
        (lambda d: d.update(cluster={"shards": 5}), "cannot partition"),
        (lambda d: d.update(cluster={"shards": 2, "epoch": 7 * HOUR}),
         "does not tile"),
        (lambda d: d.update(chaos={"cell": ""}), "chaos.cell"),
    ],
)
def test_invalid_documents_are_rejected_loudly(mutate, pattern):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(SimulationError, match=pattern):
        validate(doc)


def test_crash_windows_may_touch_and_come_in_any_order():
    crashes = [
        {"node": "isp1", "at": 180.0, "down_for": 30.0},
        {"node": "isp1", "at": 120.0, "down_for": 60.0},
        {"node": "bank", "at": 150.0, "down_for": 60.0},
    ]
    assert validate(base_doc(crashes=crashes))["crashes"] == crashes


def test_non_mapping_inputs_are_rejected():
    with pytest.raises(SimulationError, match="must be a mapping"):
        validate([1, 2, 3])
    with pytest.raises(SimulationError, match="must be a mapping"):
        parse("[1, 2, 3]")
    with pytest.raises(SimulationError, match="parses as neither JSON"):
        parse("{unparseable: [")


def test_epoch_must_tile_reconcile_when_sharded():
    doc = base_doc(
        reconcile={"every": 90 * 60.0},  # 1.5h
        cluster={"shards": 2, "epoch": HOUR},
    )
    with pytest.raises(SimulationError, match="reconcile.every"):
        validate(doc)


def test_cluster_lag_must_be_zero():
    # The key survives only so canonical documents keep their digests;
    # lockstep is the one cluster drive, so any other value is refused.
    doc = base_doc(cluster={"shards": 1, "lag": 2})
    with pytest.raises(SimulationError, match=r"cluster\.lag"):
        validate(doc)


def test_economics_use_crypto_must_be_false():
    # Recorded in ZmailConfig, read by no code: only the default passes.
    assert validate(base_doc(economics={"use_crypto": False}))
    doc = base_doc(economics={"use_crypto": True})
    with pytest.raises(SimulationError, match=r"economics\.use_crypto"):
        validate(doc)


def test_economics_reconciliation_period_must_be_default():
    # The reconciliation cadence is ``reconcile.every``; this key is
    # recorded, not read, so only the default (30 days) passes.
    assert validate(base_doc(economics={"reconciliation_period": 30 * DAY}))
    doc = base_doc(economics={"reconciliation_period": 7 * DAY})
    with pytest.raises(
        SimulationError, match=r"economics\.reconciliation_period"
    ):
        validate(doc)


# -- the v2 ``strategies`` term ----------------------------------------------


def strategies_doc(**strategy_overrides):
    """A valid v2 document with a strategies term (6h of background)."""
    strategies = {
        "periods": 1,
        "attacker": {"name": "static", "isp": 0, "user": 0},
        "defender": {"name": "zmail_static"},
    }
    strategies.update(strategy_overrides)
    return base_doc(
        schema_version=2,
        traffic={"duration": float(DAY), "normal_rate_per_day": 4.0},
        strategies=strategies,
    )


def test_v1_canonical_form_has_no_strategies_key():
    # The bump to SCHEMA_VERSION 2 must not disturb v1 worlds: their
    # canonical bytes (and so every pinned digest) are version-stable.
    doc = validate(base_doc(schema_version=1))
    assert doc["schema_version"] == 1
    assert "strategies" not in doc
    assert "strategies" not in canonical_dump(doc)


def test_v2_materializes_strategy_defaults():
    doc = validate(strategies_doc())
    strategies = doc["strategies"]
    assert strategies["attacker"]["params"]["volume"] == 200
    assert strategies["defender"]["params"] == {}
    assert strategies["market"]["epenny_dollars"] == 0.01
    assert strategies["market"]["conversion_rate"] == 0.0005
    # Canonical-form contract extends to the new term.
    assert validate(doc) == doc
    assert parse(canonical_dump(doc)) == doc
    assert scenario_digest(doc) == scenario_digest(parse(canonical_dump(doc)))


def test_v2_without_strategies_materializes_null():
    doc = base_doc(schema_version=2)
    assert validate(doc)["strategies"] is None


def test_strategies_digest_tracks_strategy_content():
    a = validate(strategies_doc())
    b = strategies_doc()
    b["strategies"]["attacker"]["params"] = {"volume": 999}
    assert scenario_digest(a) != scenario_digest(validate(b))


@pytest.mark.parametrize(
    "mutate, pattern",
    [
        (lambda s: s.update(attacker={"name": "nope"}),
         "not a known strategy"),
        (lambda s: s.update(defender={"name": "nope"}),
         "not a known strategy"),
        (lambda s: s.pop("attacker"), "strategies.attacker: required"),
        (lambda s: s.pop("defender"), "strategies.defender: required"),
        (lambda s: s.update(wat=1), "strategies: unknown keys"),
        (lambda s: s["attacker"].update(wat=1),
         "strategies.attacker: unknown keys"),
        (lambda s: s["attacker"].update(params={"wat": 1}),
         "strategies.attacker.params: unknown keys"),
        (lambda s: s["attacker"].update(params={"volume": 0}),
         "must be >= 1"),
        (lambda s: s.update(periods=0), "strategies.periods"),
        (lambda s: s.update(periods=99), "do not fit traffic.duration"),
        (lambda s: s["attacker"].update(isp=7),
         "strategies.attacker.isp: ISP 7 outside"),
        (lambda s: s.update(market={"epenny_dollars": "cheap"}),
         "strategies.market.epenny_dollars"),
    ],
)
def test_invalid_strategies_are_rejected_loudly(mutate, pattern):
    doc = strategies_doc()
    mutate(doc["strategies"])
    with pytest.raises(SimulationError, match=pattern):
        validate(doc)


def test_strategies_key_is_loudly_v2_only():
    doc = strategies_doc()
    doc["schema_version"] = 1
    with pytest.raises(SimulationError, match="requires schema_version 2"):
        validate(doc)


def test_colluding_isp_resolution_and_bounds():
    doc = strategies_doc(
        attacker={
            "name": "epenny_wash",
            "isp": 0,
            "user": 0,
            "params": {"colluding_isp": -1},
        }
    )
    out = validate(doc)
    # -1 is preserved in canonical form (resolution happens at match
    # time) but must resolve to a compliant ISP in range.
    assert out["strategies"]["attacker"]["params"]["colluding_isp"] == -1
    bad = strategies_doc(
        attacker={
            "name": "epenny_wash",
            "isp": 0,
            "user": 0,
            "params": {"colluding_isp": 9},
        }
    )
    with pytest.raises(SimulationError, match="ISP 9 outside"):
        validate(bad)


def test_colluding_isp_must_be_compliant():
    doc = strategies_doc(
        attacker={
            "name": "epenny_wash",
            "isp": 0,
            "user": 0,
            "params": {"colluding_isp": 2},
        }
    )
    doc["topology"]["noncompliant"] = [2]
    with pytest.raises(SimulationError, match="compliant"):
        validate(doc)
