"""Worker fail-stop: crash detection, journal restart, convergence.

The acceptance oracle: killing a shard worker mid-run is detected at
the barrier, the worker restarts from its journaled state via the
persistence machinery, and the run converges to the *fault-free*
digests — crash recovery is invisible in the results, visible only in
the restart counters. Inline kills are deterministic and traced (the
coverage tracer sees the whole recovery path); one spawn-mode test
SIGKILLs a real process to prove detection works across a real pipe.
"""

import pytest

from conftest import smoke_world
from repro.cluster import ClusterConfig, ClusterError, run_cluster


@pytest.fixture(scope="module")
def fault_free():
    return run_cluster(
        ClusterConfig(scenario=smoke_world(13), n_shards=3, mode="inline")
    )


class TestInlineFailStop:
    @pytest.mark.parametrize("kill_shard,kill_cycle", [(0, 1), (1, 20), (2, 47)])
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
