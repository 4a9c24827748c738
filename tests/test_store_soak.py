"""Tests for the recovery-equivalence soak harness.

The headline assertion reproduces the CI gate in miniature: the same
seeded crash/restart/flood scenario run durably (every restart rebuilt
from the SQLite store) and as an in-memory oracle must produce
byte-identical run manifests.
"""

import hashlib

import pytest

from repro.chaos.crash import CrashController
from repro.chaos.deployment import ChaosDeployment
from repro.errors import SimulationError
from repro.obs.manifest import RunManifest
from repro.obs.schema import EVENT_TYPES
from repro.store import DurableStore
from repro.store.soak import STORE_EVENT_TYPES, SoakSpec, run_soak

FAST = SoakSpec(
    seed=7,
    n_isps=3,
    users_per_isp=6,
    days=0.1,
    rate_per_day=1500.0,
    commit_interval=900.0,
    crash_nodes=("isp1", "bank"),
    crash_down_for=45.0,
    flood_rate_per_sec=15.0,
    flood_duration=60.0,
)

#: sha256 of the ``FAST`` soak's manifest file — the absolute bytes the
#: durable and oracle runs must both reproduce.
FAST_MANIFEST_SHA256 = (
    "b1673b095e6cb4754fe14e41c0a0bd4384cd861c1cae15a6411089db85f34369"
)


class TestSoakSpec:
    def test_crash_plan_evenly_spaced(self):
        plan = FAST.crash_plan()
        assert [event.node for event in plan] == ["isp1", "bank"]
        assert plan[0].at == pytest.approx(FAST.duration / 3)
        assert plan[1].at == pytest.approx(2 * FAST.duration / 3)

    def test_store_event_types_schema_registered(self):
        # Excluded-from-digest types must exist in the schema, or a
        # typo'd name would silently fail to exclude anything.
        for etype in STORE_EVENT_TYPES:
            assert etype in EVENT_TYPES


class TestRecoveryEquivalence:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("soak")
        durable_manifest = str(tmp / "durable.json")
        oracle_manifest = str(tmp / "oracle.json")
        durable = run_soak(
            FAST,
            store_path=str(tmp / "soak.db"),
            manifest_path=durable_manifest,
        )
        oracle = run_soak(FAST, manifest_path=oracle_manifest)
        return durable, oracle, durable_manifest, oracle_manifest

    def test_both_modes_pass(self, pair):
        durable, oracle, _, _ = pair
        assert durable["passed"], durable
        assert oracle["passed"], oracle

    def test_crashes_actually_injected(self, pair):
        durable, _, _, _ = pair
        assert durable["stats"]["crashes"] == 2
        assert durable["stats"]["restarts"] == 2

    def test_manifests_byte_identical(self, pair):
        _, _, durable_path, oracle_path = pair
        durable_bytes = open(durable_path, "rb").read()
        oracle_bytes = open(oracle_path, "rb").read()
        assert durable_bytes == oracle_bytes
        assert hashlib.sha256(oracle_bytes).hexdigest() == FAST_MANIFEST_SHA256

    def test_final_digests_match(self, pair):
        durable, oracle, _, _ = pair
        assert durable["final_digest"] == oracle["final_digest"]
        assert durable["cuts"] == oracle["cuts"]

    def test_manifest_is_valid_document(self, pair):
        _, _, durable_path, _ = pair
        manifest = RunManifest.from_json(open(durable_path).read())
        assert manifest.seed == FAST.seed
        assert manifest.extra["scenario"] == "store-soak"
        assert manifest.extra["converged"] is True
        assert manifest.extra["violations"] == 0

    def test_store_verifies_after_soak(self, pair):
        durable, _, _, _ = pair
        assert durable["store_records"] > 0
        assert durable["store_barrier"] == durable["cuts"]


class TestCrashControllerStore:
    """The chaos crash controller writes every crash through a store."""

    @pytest.fixture
    def rig(self, tmp_path):
        deployment = ChaosDeployment(
            n_isps=2, users_per_isp=3, seed=3, faults=None
        )
        store = DurableStore.create(str(tmp_path / "rig.db"))
        controller = CrashController(deployment, store)
        deployment.crash_controller = controller
        yield deployment, store, controller
        store.close()

    def test_crash_persists_node_state(self, rig):
        _, store, controller = rig
        controller.crash("isp0")
        assert store.get("journal", "isp0") is not None
        assert store.get("endpoint", "isp0") is not None

    def test_restart_consumes_node_state(self, rig):
        _, store, controller = rig
        controller.crash("isp0")
        controller.restart("isp0")
        assert store.get("journal", "isp0") is None
        assert store.get("endpoint", "isp0") is None

    def test_restart_without_journal_raises(self, rig):
        _, store, controller = rig
        controller.crash("isp0")
        store.commit([], barrier=store.barrier, deletes=[("journal", "isp0")])
        with pytest.raises(SimulationError, match="no crash journal"):
            controller.restart("isp0")

    def test_restart_with_missing_endpoint_raises(self, rig):
        _, store, controller = rig
        controller.crash("bank")
        store.commit([], barrier=store.barrier, deletes=[("endpoint", "bank")])
        with pytest.raises(SimulationError, match="no endpoint state"):
            controller.restart("bank")

    def test_tampered_journal_refuses_restart(self, rig):
        _, store, controller = rig
        controller.crash("bank")
        # Edit the committed row behind the store's back: the checksum
        # no longer matches the payload.
        store._conn.execute(
            "UPDATE records SET payload = replace(payload, '0', '9') "
            "WHERE kind = 'journal' AND key = 'bank'"
        )
        with pytest.raises(SimulationError, match="checksum"):
            controller.restart("bank")
