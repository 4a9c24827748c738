"""Worker fail-stop: crash detection, shard-store restart, convergence.

The acceptance oracle: killing a shard worker mid-run is detected at
the barrier, the worker restarts from its shard's durable store, and
the run converges to the *fault-free* digests — crash recovery is
invisible in the results, visible only in the restart counters. Inline
kills are deterministic and traced (the coverage tracer sees the whole
recovery path); one spawn-mode test SIGKILLs a real process to prove
detection works across a real pipe.
"""

import dataclasses

import pytest

from conftest import journaling_shard, smoke_world
from repro.cluster import (
    ClusterConfig,
    ClusterError,
    ShardWorker,
    run_cluster,
)


@pytest.fixture(scope="module")
def fault_free():
    return run_cluster(
        ClusterConfig(scenario=smoke_world(13), n_shards=3, mode="inline")
    )


class TestInlineFailStop:
    # Cycle 0 is the first barrier; 24 is both the daily reconcile cut
    # (the pending cut round-trips through the shard record) and the
    # midnight barrier; 25 is the first barrier after midnight.
    @pytest.mark.parametrize(
        "kill_shard,kill_cycle",
        [(0, 0), (0, 1), (1, 20), (1, 24), (2, 25), (2, 47)],
    )
    def test_kill_converges_to_fault_free_digest(
        self, fault_free, tmp_path, kill_shard, kill_cycle
    ):
        result = run_cluster(
            ClusterConfig(
                scenario=smoke_world(13),
                n_shards=3,
                mode="inline",
                journal_dir=str(tmp_path),
                kill_shard=kill_shard,
                kill_cycle=kill_cycle,
            )
        )
        assert result.report["restarts"][kill_shard] == 1
        assert result.report["shards"][str(kill_shard)]["restored"]
        assert result.manifest.to_json() == fault_free.manifest.to_json()
        assert result.conserved and result.all_consistent

    def test_kill_without_journal_is_fatal(self, tmp_path):
        # The parent refuses the config outright: fail-stop recovery
        # without journaled state cannot converge, so it is an error
        # before the run starts rather than a hang inside it.
        with pytest.raises(ValueError, match="journal_dir"):
            run_cluster(
                ClusterConfig(
                    scenario=smoke_world(13),
                    n_shards=2,
                    mode="inline",
                    kill_shard=0,
                    kill_cycle=5,
                )
            )

    def test_journaling_alone_does_not_perturb(self, fault_free, tmp_path):
        result = run_cluster(
            ClusterConfig(
                scenario=smoke_world(13),
                n_shards=3,
                mode="inline",
                journal_dir=str(tmp_path),
            )
        )
        assert result.report["restarts"] == [0, 0, 0]
        assert result.manifest.to_json() == fault_free.manifest.to_json()


    def test_fresh_run_refuses_an_earlier_runs_stores(self, tmp_path):
        config = ClusterConfig(
            scenario=smoke_world(13), n_shards=2, mode="inline",
            journal_dir=str(tmp_path),
        )
        run_cluster(config)
        with pytest.raises(ValueError, match="already holds shard stores"):
            run_cluster(config)


class TestShardStore:
    def test_respawn_before_first_barrier_commit(self, tmp_path):
        # The first worker died after creating its store but before any
        # barrier commit: the respawn starts afresh and ends where an
        # unjournaled worker does.
        spec = journaling_shard(tmp_path / "journal")
        ShardWorker(spec)._store.close()
        respawned = ShardWorker(spec)
        assert respawned.take_pending_outputs() is None
        plain = ShardWorker(dataclasses.replace(spec, journal_dir=None))
        for cycle in range(spec.total_cycles + 1):
            msg = {"cycle": cycle, "batches": [], "reconcile": False,
                   "final": cycle == spec.total_cycles}
            ours = respawned.handle_inputs(msg)
            theirs = plain.handle_inputs(msg)
        for part in ("accounting", "digests", "counters"):
            assert ours[part] == theirs[part]

    def test_worker_without_journal_dir_keeps_no_store(self):
        spec = journaling_shard(None)
        worker = ShardWorker(spec)
        assert worker._store is None and worker.network._touch is None


class TestSpawnFailStop:
    def test_sigkill_detected_and_recovered(self, fault_free, tmp_path):
        result = run_cluster(
            ClusterConfig(
                scenario=smoke_world(13),
                n_shards=3,
                mode="spawn",
                journal_dir=str(tmp_path),
                kill_shard=1,
                kill_cycle=30,
            )
        )
        assert result.report["restarts"][1] >= 1
        assert result.manifest.to_json() == fault_free.manifest.to_json()

    def test_spawn_matches_inline(self, fault_free):
        result = run_cluster(
            ClusterConfig(
                scenario=smoke_world(13), n_shards=2, mode="spawn"
            )
        )
        assert result.manifest.to_json() == fault_free.manifest.to_json()
        assert isinstance(ClusterError("x"), Exception)
