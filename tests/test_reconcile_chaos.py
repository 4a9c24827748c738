"""Chaos under bounded lag: crashes must not perturb the async drive.

The strongest form of the lockstep-as-oracle contract: kill a shard
worker mid-run *while the drive is asynchronous*, let journal recovery
replay it, and require convergence to the **fault-free lockstep**
manifest — one oracle covering both the crash and the asynchrony. The
streaming verifier must ride through the replayed reports via dup-drop
(zero faults), the invariant monitors must stay green (conservation,
anti-symmetry, non-negative balances and pools), and the recovery must
be visible only in the restart counters. Inline kills are deterministic
and traced; one spawn test SIGKILLs a real process under lag.
"""

import pytest

from conftest import smoke_world
from repro.cluster import ClusterConfig, run_cluster

SEED = 13


@pytest.fixture(scope="module")
def fault_free_lockstep():
    return run_cluster(
        ClusterConfig(scenario=smoke_world(SEED), n_shards=3,
                      mode="inline")
    )


def assert_monitors_green(result):
    """The invariant monitors the chaos campaign watches."""
    assert result.conserved and result.all_consistent
    for isp in result.accounting["isps"].values():
        assert isp["pool"] >= 0
        assert all(balance >= 0 for _, _, balance in isp["users"])
    summary = result.report["reconcile"]
    assert summary["counters"]["faults"] == 0
    assert summary["faults"] == []
    # The crash replays whole cut reports; the verifier must absorb
    # them as duplicates, not verification input.
    assert summary["windows_closed"] == len(result.rounds)


class TestInlineChaos:
    @pytest.mark.parametrize(
        "kill_shard,kill_cycle,lag",
        [(0, 0, 2), (1, 5, 3), (1, 24, 2), (2, 47, 3)],
    )
    def test_kill_under_lag_converges_to_fault_free_lockstep(
        self, fault_free_lockstep, tmp_path, kill_shard, kill_cycle, lag
    ):
        result = run_cluster(
            ClusterConfig(
                scenario=smoke_world(SEED),
                n_shards=3,
                mode="inline",
                journal_dir=str(tmp_path),
                kill_shard=kill_shard,
                kill_cycle=kill_cycle,
                lag=lag,
            )
        )
        assert result.report["restarts"][kill_shard] == 1
        assert result.report["shards"][str(kill_shard)]["restored"]
        assert (result.manifest.to_json()
                == fault_free_lockstep.manifest.to_json())
        assert result.rounds == fault_free_lockstep.rounds
        assert_monitors_green(result)

    def test_journaling_alone_does_not_perturb_async(
        self, fault_free_lockstep, tmp_path
    ):
        result = run_cluster(
            ClusterConfig(
                scenario=smoke_world(SEED), n_shards=3, mode="inline",
                journal_dir=str(tmp_path), lag=2,
            )
        )
        assert result.report["restarts"] == [0, 0, 0]
        assert (result.manifest.to_json()
                == fault_free_lockstep.manifest.to_json())
        assert_monitors_green(result)

    def test_kill_without_journal_is_fatal_under_lag(self):
        with pytest.raises(ValueError, match="journal_dir"):
            run_cluster(
                ClusterConfig(
                    scenario=smoke_world(SEED), n_shards=2,
                    mode="inline", kill_shard=0, kill_cycle=5, lag=2,
                )
            )


class TestSpawnChaos:
    def test_sigkill_under_lag_detected_and_recovered(
        self, fault_free_lockstep, tmp_path
    ):
        result = run_cluster(
            ClusterConfig(
                scenario=smoke_world(SEED),
                n_shards=3,
                mode="spawn",
                journal_dir=str(tmp_path),
                kill_shard=0,
                kill_cycle=12,
                lag=2,
            )
        )
        assert result.report["restarts"][0] >= 1
        assert (result.manifest.to_json()
                == fault_free_lockstep.manifest.to_json())
        assert_monitors_green(result)
