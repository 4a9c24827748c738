"""Tests for the recovery-equivalence soak harness.

The headline assertion reproduces the CI gate in miniature: the same
scenario document's crash/restart/flood world run durably (every
restart rebuilt from the SQLite store) and as an in-memory oracle must
produce byte-identical run manifests.
"""

import hashlib

import pytest

from conftest import example, load_plan
from repro.chaos.crash import CrashController
from repro.chaos.deployment import ChaosDeployment
from repro.cli import main
from repro.errors import SimulationError
from repro.obs.manifest import RunManifest
from repro.obs.schema import EVENT_TYPES
from repro.store import DurableStore
from repro.store.soak import STORE_EVENT_TYPES, run_soak

#: A short soak world: an eighth of the CI soak's traffic rate, a
#: smaller flood and two 45 s crashes, with commit cuts every 900 s.
FAST = {
    "schema_version": 1,
    "name": "soak-fast",
    "seed": 7,
    "topology": {"n_isps": 3, "users_per_isp": 6},
    "traffic": {
        "duration": 8640.0,
        "normal_rate_per_day": 1500.0,
        "floods": [{"attacker_isp": 0, "target_isp": 1,
                    "rate_per_sec": 15.0, "start": 2160.0,
                    "duration": 60.0}],
    },
    "reconcile": {"every": 300.0},
    "faults": {"drop_rate": 0.05, "duplicate_rate": 0.05,
               "reorder_rate": 0.05},
    "overload": {"enabled": True, "admit_rate": 10.0, "admit_burst": 20,
                 "queue_capacity": 64, "retry_base": 2.0,
                 "retry_backoff": 2.0, "retry_max_interval": 30.0,
                 "max_retries": 3},
    "crashes": [{"node": "isp1", "at": 2880.0, "down_for": 45.0},
                {"node": "bank", "at": 5760.0, "down_for": 45.0}],
    "chaos": {"drain_window": 1800.0},
}
FAST_COMMIT_EVERY = 900.0

#: sha256 of the ``FAST`` soak's manifest file — the absolute bytes the
#: durable and oracle runs must both reproduce.
FAST_MANIFEST_SHA256 = (
    "9c516c6127a140bb6c37e16d41c1a36df684cfadedfc4e95ad21b49c294b2d26"
)

#: sha256 of the CI soak world's manifest file (seed 7, 3x6 users, a
#: quarter day, isp1 and bank each crashed once) — the bytes the
#: ``tools/ci.sh`` soak step compares between its durable and oracle runs.
SOAK_MANIFEST_SHA256 = (
    "ac1e9c5de71d5161f1ab343818fce4ad6512dd8cee6c1910c5a26cec5a6ef3b0"
)


def test_ci_soak_manifest_is_pinned(tmp_path, capsys):
    soak = ["run", example("soak.yaml"), "--mode", "soak"]
    durable, oracle = tmp_path / "durable.json", tmp_path / "oracle.json"
    store = ["--store", str(tmp_path / "soak.db")]
    assert main(soak + store + ["--manifest", str(durable)]) == 0
    assert main(soak + ["--manifest", str(oracle)]) == 0
    out = capsys.readouterr().out
    assert "store:           durable" in out and "store:           oracle" in out
    for path in (durable, oracle):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SOAK_MANIFEST_SHA256, path.name


class TestSoakDocument:
    def test_store_event_types_schema_registered(self):
        # Excluded-from-digest types must exist in the schema, or a
        # typo'd name would silently fail to exclude anything.
        for etype in STORE_EVENT_TYPES:
            assert etype in EVENT_TYPES

    def test_failed_cut_closes_the_store(self, tmp_path, monkeypatch):
        import repro.store.soak as soak

        closed, close = [], DurableStore.close
        monkeypatch.setattr(
            DurableStore, "close", lambda store: closed.append(close(store))
        )
        monkeypatch.setattr(soak, "restore_network", lambda store: None)
        monkeypatch.setattr(
            soak, "durable_digest", lambda network: str(network is None)
        )
        with pytest.raises(SimulationError, match="recovery-equivalence"):
            run_soak(load_plan(FAST), store_path=str(tmp_path / "s.db"))
        assert len(closed) == 1


class TestRecoveryEquivalence:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("soak")
        plan = load_plan(FAST)
        durable = run_soak(
            plan,
            store_path=str(tmp / "soak.db"),
            commit_every=FAST_COMMIT_EVERY,
        )
        oracle = run_soak(plan, commit_every=FAST_COMMIT_EVERY)
        return durable, oracle

    def test_both_modes_pass(self, pair):
        durable, oracle = pair
        assert durable["passed"], durable
        assert oracle["passed"], oracle

    def test_crashes_actually_injected(self, pair):
        durable, _ = pair
        assert durable["stats"]["crashes"] == 2
        assert durable["stats"]["restarts"] == 2

    def test_manifests_byte_identical(self, pair):
        durable, oracle = pair
        durable_bytes = durable["manifest"].to_json().encode("utf-8")
        oracle_bytes = oracle["manifest"].to_json().encode("utf-8")
        assert durable_bytes == oracle_bytes
        assert hashlib.sha256(oracle_bytes).hexdigest() == FAST_MANIFEST_SHA256

    def test_final_digests_match(self, pair):
        durable, oracle = pair
        assert durable["final_digest"] == oracle["final_digest"]
        assert durable["cuts"] == oracle["cuts"]

    def test_manifest_is_valid_document(self, pair):
        durable, _ = pair
        manifest = RunManifest.from_json(durable["manifest"].to_json())
        assert manifest.seed == FAST["seed"]
        assert manifest.extra["scenario"] == "store-soak"
        assert manifest.extra["converged"] is True
        assert manifest.extra["violations"] == 0

    def test_store_verifies_after_soak(self, pair):
        durable, _ = pair
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
