"""Shard invariance and protocol correctness of the cluster runtime.

The headline oracle: running the same scenario at N=1, 2 and 4 shards
(inline workers — same code the spawn path drives) produces
byte-identical merged manifests, identical balances/ledger digests, and
credit anti-symmetry at every snapshot round. Plus the worker message
loop driven over a real pipe from a thread, and the validation errors
that keep misconfigured runs from silently diverging.
"""

import dataclasses
import multiprocessing
import threading

import pytest

from conftest import load_plan, mixed_world, smoke_world
from repro.cluster import (
    ClusterConfig,
    ShardSpec,
    ShardWorker,
    plan_shards,
    run_cluster,
    worker_entry,
)
from repro.errors import SimulationError
from repro.sim.clock import HOUR
from repro.store import DurableStore


@pytest.fixture(scope="module")
def invariance_runs():
    """One smoke scenario at three shard counts (inline, traced)."""
    return {
        n: run_cluster(
            ClusterConfig(
                scenario=smoke_world(11), n_shards=n, mode="inline"
            )
        )
        for n in (1, 2, 4)
    }


class TestShardInvariance:
    def test_manifests_byte_identical(self, invariance_runs):
        reference = invariance_runs[1].manifest.to_json()
        for n, result in invariance_runs.items():
            assert result.manifest.to_json() == reference, (
                f"N={n} manifest diverged from N=1"
            )

    def test_balances_and_ledger_digests_identical(self, invariance_runs):
        reference = invariance_runs[1].manifest.extra
        for result in invariance_runs.values():
            extra = result.manifest.extra
            assert extra["balances_digest"] == reference["balances_digest"]
            assert extra["ledger_digest"] == reference["ledger_digest"]
            assert (
                extra["ledger_event_count"]
                == reference["ledger_event_count"]
            )

    def test_conservation_and_antisymmetry_every_round(
        self, invariance_runs
    ):
        for result in invariance_runs.values():
            assert result.conserved
            assert result.all_consistent
            assert len(result.rounds) >= 2  # daily cuts + the final one
            for round_info in result.rounds:
                assert round_info["consistent"]
                assert (
                    round_info["total_value"]
                    == round_info["expected_total_value"]
                )

    def test_zombie_detections_identical(self, invariance_runs):
        reference = invariance_runs[1].detections
        assert reference, "smoke scenario should catch its zombie"
        for result in invariance_runs.values():
            assert result.detections == reference

    def test_report_carries_per_run_detail(self, invariance_runs):
        report = invariance_runs[2].report
        assert report["n_shards"] == 2
        assert report["mode"] == "inline"
        assert report["restarts"] == [0, 0]
        assert len(report["assignment"]) == smoke_world(11).n_isps
        assert set(report["shards"]) == {"0", "1"}
        attempted = sum(
            shard["attempted"] for shard in report["shards"].values()
        )
        assert (
            attempted
            == invariance_runs[2].manifest.extra["sends_attempted"]
        )

    def test_cross_shard_traffic_actually_flows(self, invariance_runs):
        shards = invariance_runs[4].report["shards"].values()
        assert sum(shard["exported"] for shard in shards) > 0
        assert sum(shard["exported"] for shard in shards) == sum(
            shard["imported"] for shard in shards
        )


class TestWorkerEntry:
    """The spawn-mode message loop, driven from a thread over a pipe."""

    def _spec(self, tmp_path=None):
        scenario = load_plan(mixed_world(
            3, n_isps=4, users_per_isp=6, days=1, adversarial=False
        )).scenario()
        plan = plan_shards(scenario.n_isps, 1, seed=scenario.seed)
        return ShardSpec(
            shard_id=0,
            n_shards=1,
            scenario=scenario,
            assignment=plan.assignment,
            epoch_len=6 * HOUR,
            total_cycles=4,
            journal_dir=str(tmp_path) if tmp_path is not None else None,
        )

    def _drive(self, conn, total_cycles, reconcile_cycles):
        outputs = []
        for cycle in range(total_cycles + 1):
            conn.send(
                {
                    "type": "inputs",
                    "cycle": cycle,
                    "batches": [],
                    "reconcile": cycle in reconcile_cycles,
                    "final": cycle == total_cycles,
                }
            )
            outputs.append(conn.recv())
        return outputs

    def test_loop_over_pipe_matches_direct_worker(self, tmp_path):
        spec = self._spec(tmp_path)
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker_entry, args=(child_conn, spec)
        )
        thread.start()
        outputs = self._drive(parent_conn, spec.total_cycles, {4})
        thread.join(timeout=60)
        assert not thread.is_alive()
        final = outputs[-1]
        assert final["type"] == "final"
        assert final["cut"] is not None
        assert final["attempted"] > 0
        # The same spec driven directly produces the same digests.
        direct = ShardWorker(dataclasses.replace(spec, journal_dir=None))
        for cycle in range(spec.total_cycles + 1):
            result = direct.handle_inputs(
                {
                    "type": "inputs",
                    "cycle": cycle,
                    "batches": [],
                    "reconcile": cycle == 4,
                    "final": cycle == 4,
                }
            )
        assert result["digests"] == final["digests"]
        assert result["accounting"] == final["accounting"]

    def test_stop_message_ends_loop(self):
        spec = self._spec()
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker_entry, args=(child_conn, spec)
        )
        thread.start()
        parent_conn.send({"type": "stop"})
        thread.join(timeout=60)
        assert not thread.is_alive()

    def test_closed_pipe_ends_loop(self):
        spec = self._spec()
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker_entry, args=(child_conn, spec)
        )
        thread.start()
        parent_conn.close()
        thread.join(timeout=60)
        assert not thread.is_alive()

    def test_stale_inputs_dropped_and_gaps_rejected(self):
        spec = self._spec()
        worker = ShardWorker(spec)
        first = worker.handle_inputs(
            {"cycle": 0, "batches": [], "reconcile": False, "final": False}
        )
        assert first["type"] == "outputs"
        # A resent duplicate is ignored, not reapplied.
        assert (
            worker.handle_inputs(
                {"cycle": 0, "batches": [], "reconcile": False,
                 "final": False}
            )
            is None
        )
        with pytest.raises(SimulationError, match="expected inputs"):
            worker.handle_inputs(
                {"cycle": 2, "batches": [], "reconcile": False,
                 "final": False}
            )

    def test_unreadable_journal_rejected(self, tmp_path):
        spec = self._spec(tmp_path)
        ShardWorker(spec)._store.close()
        with DurableStore.open(spec.journal_path) as store:
            store.commit([], barrier=0, meta={"journal_format_version": "999"})
        with pytest.raises(SimulationError, match="journal format"):
            ShardWorker(spec)


class TestValidation:
    def test_cadence_constraints_enforced(self):
        scenario = smoke_world(0)
        with pytest.raises(ValueError, match="duration"):
            run_cluster(
                ClusterConfig(
                    scenario=scenario, n_shards=1, mode="inline",
                    epoch_len=7 * HOUR,  # divides neither day nor duration
                )
            )
        with pytest.raises(ValueError, match="day length"):
            run_cluster(
                ClusterConfig(
                    scenario=scenario, n_shards=1, mode="inline",
                    epoch_len=16 * HOUR,  # divides duration, not the day
                )
            )
        bad_reconcile = smoke_world(0)
        bad_reconcile.reconcile_every = 90 * 60.0  # 1.5h
        with pytest.raises(ValueError, match="reconcile_every"):
            run_cluster(
                ClusterConfig(
                    scenario=bad_reconcile, n_shards=1, mode="inline"
                )
            )
        with pytest.raises(ValueError, match="epoch_len"):
            run_cluster(
                ClusterConfig(
                    scenario=scenario, n_shards=1, mode="inline",
                    epoch_len=0.0,
                )
            )

    def test_mode_and_kill_config_validated(self, tmp_path):
        scenario = smoke_world(0)
        with pytest.raises(ValueError, match="mode"):
            run_cluster(
                ClusterConfig(scenario=scenario, n_shards=1, mode="threads")
            )
        with pytest.raises(ValueError, match="together"):
            run_cluster(
                ClusterConfig(
                    scenario=scenario, n_shards=1, mode="inline",
                    kill_shard=0,
                )
            )
        with pytest.raises(ValueError, match="journal_dir"):
            run_cluster(
                ClusterConfig(
                    scenario=scenario, n_shards=1, mode="inline",
                    kill_shard=0, kill_cycle=3,
                )
            )
        with pytest.raises(ValueError, match="kill_shard"):
            run_cluster(
                ClusterConfig(
                    scenario=scenario, n_shards=2, mode="inline",
                    kill_shard=5, kill_cycle=3,
                    journal_dir=str(tmp_path),
                )
            )
        with pytest.raises(ValueError, match="kill_cycle"):
            run_cluster(
                ClusterConfig(
                    scenario=scenario, n_shards=2, mode="inline",
                    kill_shard=0, kill_cycle=10_000,
                    journal_dir=str(tmp_path),
                )
            )

    def test_more_shards_than_isps_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            run_cluster(
                ClusterConfig(
                    scenario=smoke_world(0), n_shards=100, mode="inline"
                )
            )


class TestUntraced:
    def test_untraced_run_keeps_accounting_oracles(self):
        traced = run_cluster(
            ClusterConfig(
                scenario=smoke_world(11), n_shards=2, mode="inline"
            )
        )
        untraced = run_cluster(
            ClusterConfig(
                scenario=smoke_world(11), n_shards=2, mode="inline",
                traced=False,
            )
        )
        assert untraced.manifest.event_count == 0
        assert untraced.conserved and untraced.all_consistent
        assert (
            untraced.manifest.extra["balances_digest"]
            == traced.manifest.extra["balances_digest"]
        )
        assert (
            untraced.manifest.extra["sends_attempted"]
            == traced.manifest.extra["sends_attempted"]
        )
