"""Differential fuzzing tests: executors must agree, failures must shrink.

The oracle under test: for any generated world, the direct loop, the
columnar batch executor and the inline cluster produce byte-identical
invariant manifests — with one carved-out semantic boundary (the
epoch-barriered cluster is only byte-comparable under credit slack; the
pinned regression world below documents a real divergence found by the
fuzzer on the other side of that boundary). Shrinking is deterministic:
a failing world descends to the same minimal world on every machine.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

import yaml
from hypothesis import given, settings, strategies as st

from conftest import example

from repro.errors import SimulationError
from repro.scenario import (
    check_world,
    cluster_comparable,
    compile_scenario,
    format_report,
    generate_doc,
    parse_replay,
    replay_world,
    run_fuzz,
    run_plan,
    shrink,
    world_seed,
)
from repro.sim.clock import HOUR

FUZZ_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True)

#: The campaign seed whose worlds first exposed the cluster's
#: credit-slack boundary (world 1: tight-balance two-zombie world whose
#: senders run out of e-pennies mid-run).
PINNED_CAMPAIGN_SEED = 2026
PINNED_WORLD_INDEX = 1


def slack_world(**overrides):
    """A small all-compliant world with credit slack (cluster-comparable)."""
    doc = {
        "schema_version": 1,
        "name": "fuzz-unit",
        "seed": 3,
        "topology": {"n_isps": 3, "users_per_isp": 3},
        "economics": {
            "default_daily_limit": 50,
            "default_user_balance": 200,
            "auto_topup_amount": 0,
        },
        "traffic": {
            "duration": 6 * HOUR,
            "normal_rate_per_day": 6.0,
            "spammers": [{"isp": 1, "user": 0, "volume": 60,
                          "war_chest": 10, "start": 0.0,
                          "duration": 2 * HOUR}],
            "zombies": [{"isp": 2, "user": 2, "rate_per_hour": 40.0,
                         "start": HOUR, "end": 3 * HOUR}],
            "floods": [{"attacker_isp": 0, "target_isp": 1,
                        "rate_per_sec": 1.0, "start": HOUR,
                        "duration": HOUR, "attackers": 2}],
        },
        # The fault schedule only matters on the chaos drive; its
        # presence must not disturb the invariant-manifest drives.
        "faults": {"drop_rate": 0.1, "duplicate_rate": 0.1},
        "reconcile": {"every": 3 * HOUR},
        "cluster": {"shards": 2, "epoch": HOUR, "lag": 0},
    }
    doc.update(overrides)
    return doc


# -- the oracle --------------------------------------------------------------


def test_mixed_world_agrees_across_all_executors():
    doc = slack_world()
    assert cluster_comparable(doc)
    assert check_world(doc, shards=2) is None


def test_engine_mode_matches_direct():
    plan = compile_scenario(slack_world())
    direct = run_plan(plan, "direct")["manifest"].to_json()
    engine = run_plan(plan, "engine")["manifest"].to_json()
    assert direct == engine


@given(
    seed=st.integers(0, 2**16 - 1),
    users=st.integers(2, 4),
    zombie_rate=st.floats(20.0, 90.0),
    flood_rate=st.floats(0.5, 2.0),
)
@FUZZ_SETTINGS
def test_differential_small_worlds(seed, users, zombie_rate, flood_rate):
    doc = slack_world(seed=seed)
    doc["topology"]["users_per_isp"] = users
    doc["traffic"]["zombies"][0]["user"] = users - 1
    doc["traffic"]["zombies"][0]["rate_per_hour"] = round(zombie_rate, 1)
    doc["traffic"]["floods"][0]["rate_per_sec"] = round(flood_rate, 2)
    reason = check_world(doc, shards=2)
    assert reason is None, f"seed {seed}: {reason}"


def test_cluster_comparable_predicate():
    assert cluster_comparable(slack_world())
    tight = slack_world(
        economics={"default_daily_limit": 50, "default_user_balance": 40}
    )
    assert not cluster_comparable(tight)


def test_check_world_accepts_a_raw_document():
    """The oracle reads the validated document, so omitted keys default."""
    with open(example("canonical-3isp.yaml"), encoding="utf-8") as handle:
        doc = yaml.safe_load(handle)
    assert "default_user_balance" not in doc["economics"]
    assert check_world(doc) is None


def test_pinned_tight_balance_world_documents_the_cluster_boundary():
    """Regression corpus: a fuzzer-found world on the far side of slack.

    This generated tight-balance world is NOT cluster-comparable: a
    user's balance binds mid-run, so the cluster's next-epoch delivery
    of cross-ISP credits legitimately changes which sends clear. The
    oracle must stay green (it drops the cluster from the strict
    comparison), and the raw divergence must still be there — if it
    ever disappears, the cluster stopped barrier-delivering and this
    boundary (and ``cluster_comparable``) should be re-examined.
    """
    doc = generate_doc(world_seed(PINNED_CAMPAIGN_SEED, PINNED_WORLD_INDEX))
    assert not cluster_comparable(doc)
    assert check_world(doc, shards=2) is None
    plan = compile_scenario(doc)
    direct = run_plan(plan, "direct")["manifest"]
    cluster = run_plan(plan, "cluster", shards=2)["manifest"]
    assert direct.to_json() != cluster.to_json()
    assert direct.extra["conserved"] and cluster.extra["conserved"]
    assert (direct.extra["sends_attempted"]
            == cluster.extra["sends_attempted"])


# -- shrinking ---------------------------------------------------------------


def rich_world():
    return slack_world(
        topology={"n_isps": 4, "users_per_isp": 5, "noncompliant": [3]},
        traffic={
            "duration": 12 * HOUR,
            "normal_rate_per_day": 8.0,
            "spammers": [{"isp": 1, "user": 0, "volume": 80}],
            "zombies": [{"isp": 0, "user": 0, "rate_per_hour": 40.0,
                         "start": 0.0, "end": 2 * HOUR}],
            "floods": [{"attacker_isp": 0, "target_isp": 1,
                        "rate_per_sec": 2.0}],
        },
        crashes=[{"node": "isp1", "at": 60.0, "down_for": 30.0}],
        overload={"enabled": True},
    )


def test_shrink_reduces_to_the_minimal_failing_world():
    failing = lambda doc: bool(doc["traffic"]["zombies"])
    minimal = shrink(rich_world(), failing)
    assert len(minimal["traffic"]["zombies"]) == 1
    assert minimal["traffic"]["spammers"] == []
    assert minimal["traffic"]["floods"] == []
    assert minimal["traffic"]["normal_rate_per_day"] == 0.0
    assert minimal["crashes"] == []
    assert not minimal["overload"]["enabled"]
    assert minimal["topology"]["noncompliant"] == []
    assert minimal["topology"]["n_isps"] == 2
    assert minimal["topology"]["users_per_isp"] == 2
    assert minimal["traffic"]["duration"] == 6 * HOUR
    assert minimal["traffic"]["zombies"][0]["rate_per_hour"] <= 10.0
    # Determinism: the same failing world shrinks to the same minimum.
    assert shrink(rich_world(), failing) == minimal


def test_shrink_requires_a_failing_start():
    with pytest.raises(SimulationError, match="failing document"):
        shrink(rich_world(), lambda doc: False)


# -- the campaign harness ----------------------------------------------------


def test_fuzz_campaign_reports_and_replays_failures(tmp_path):
    # A cheap deliberately-broken oracle: any world with spammers fails.
    broken = lambda doc: (
        "spammers present" if doc["traffic"]["spammers"] else None
    )
    count, seed = 8, PINNED_CAMPAIGN_SEED
    report = run_fuzz(count=count, seed=seed, out=str(tmp_path), check=broken)
    assert not report["passed"]
    assert report["failures"], "some generated world must have spammers"
    row = report["failures"][0]
    assert row["reason"] == "spammers present"
    assert row["minimal"]["traffic"]["spammers"], "shrunk world still fails"
    assert len(row["artifacts"]) == 2
    for path in row["artifacts"]:
        assert (tmp_path / path.split("/")[-1]).exists()

    token = row["replay"]
    assert parse_replay(token) == (seed, row["index"])
    replayed = replay_world(token, check=broken)
    assert not replayed["passed"]
    assert replayed["failures"][0]["minimal"] == row["minimal"]

    text = format_report(report)
    assert f"repro fuzz --replay {token}" in text
    assert "verdict=FAIL" in text


def test_fuzz_campaign_green_path():
    healthy = lambda doc: None
    report = run_fuzz(count=3, seed=1, check=healthy)
    assert report["passed"] and report["failures"] == []
    assert "verdict=PASS" in format_report(report)
    green_replay = replay_world("1:0", check=healthy)
    assert green_replay["passed"]


def test_fuzz_input_validation():
    with pytest.raises(SimulationError, match="count >= 1"):
        run_fuzz(count=0, seed=1)
    with pytest.raises(SimulationError, match="SEED:INDEX"):
        parse_replay("not-a-token")
