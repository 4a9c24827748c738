"""Lockstep as differential oracle for the bounded-lag drive.

The acceptance contract of the barrier-free mode: for *any* scenario,
shard count and lag bound K, the asynchronous run must converge at
quiescence to a final run manifest **byte-identical** to the lockstep
run's, with the same reconciliation rounds and zero verifier faults.
Hypothesis draws small randomized deployments (ISP/user counts, traffic
rate, adversaries, seed) and a random (K, shard count) pair; any
divergence shrinks to a minimal scenario. A fixed-seed matrix over
K ∈ {1, 2, 4} × shards ∈ {1..4} and a CLI-level byte comparison pin the
same contract deterministically.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import example, load_plan, mixed_world
from repro import cli
from repro.cluster import ClusterConfig, run_cluster


def world(seed, **size):
    return load_plan(mixed_world(seed, **size)).scenario()


def run_inline(scenario, n_shards, lag=0):
    return run_cluster(
        ClusterConfig(
            scenario=scenario, n_shards=n_shards, mode="inline",
            traced=False, lag=lag,
        )
    )


def assert_equivalent(base, async_result, lag):
    """The oracle: identical invariants, faultless streaming."""
    assert async_result.manifest.to_json() == base.manifest.to_json()
    assert async_result.rounds == base.rounds
    assert async_result.report["lag"] == lag
    summary = async_result.report["reconcile"]
    assert summary["counters"]["faults"] == 0
    assert summary["faults"] == []
    assert summary["all_consistent"]
    assert summary["windows_closed"] == len(async_result.rounds)
    assert async_result.conserved and async_result.all_consistent


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_isps=st.integers(min_value=2, max_value=5),
    users=st.integers(min_value=2, max_value=6),
    rate=st.sampled_from([8.0, 16.0, 24.0]),
    adversarial=st.booleans(),
    lag=st.sampled_from([1, 2, 4]),
    n_shards=st.integers(min_value=1, max_value=3),
)
def test_bounded_lag_converges_to_lockstep_manifest(
    seed, n_isps, users, rate, adversarial, lag, n_shards
):
    n_shards = min(n_shards, n_isps)  # the planner caps shards at ISPs
    scenario = world(
        seed, n_isps=n_isps, users_per_isp=users, days=1,
        normal_rate_per_day=rate, adversarial=adversarial,
    )
    base = run_inline(scenario, n_shards)
    async_result = run_inline(scenario, n_shards, lag=lag)
    assert_equivalent(base, async_result, lag)


class TestFixedMatrix:
    """One seed, the full drive matrix — deterministic, no shrinking."""

    @pytest.fixture(scope="class")
    def lockstep(self):
        return run_inline(world(5, n_isps=6, users_per_isp=8, days=1), 1)

    @pytest.mark.parametrize("lag", [1, 2, 4])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_lag_and_shard_invariance(self, lockstep, lag, n_shards):
        async_result = run_inline(
            world(5, n_isps=6, users_per_isp=8, days=1),
            n_shards, lag=lag,
        )
        assert_equivalent(lockstep, async_result, lag)

    def test_lockstep_report_carries_no_reconcile_summary(self, lockstep):
        # The streaming summary is the async drive's signature; the
        # lockstep drive reconciles in batch and must say so.
        assert lockstep.report["lag"] == 0
        assert "reconcile" not in lockstep.report


class TestConfigValidation:
    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            run_cluster(
                ClusterConfig(
                    scenario=world(1, n_isps=2, users_per_isp=2, days=1),
                    n_shards=1, mode="inline", lag=-1,
                )
            )

    def test_non_integer_lag_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            run_cluster(
                ClusterConfig(
                    scenario=world(1, n_isps=2, users_per_isp=2, days=1),
                    n_shards=1, mode="inline", lag=1.5,
                )
            )


def test_cli_lag_writes_identical_manifest_bytes(tmp_path, capsys):
    """`repro run --mode cluster --lag K` is the CI cmp smoke, in-process."""
    base_path = tmp_path / "lockstep.json"
    lag_path = tmp_path / "lag2.json"
    report_path = tmp_path / "report.json"
    common = ["run", example("mixed-4isp.yaml"), "--mode", "cluster",
              "--shards", "2"]
    assert cli.main(common + ["--manifest", str(base_path)]) == 0
    assert cli.main(
        common + ["--lag", "2", "--manifest", str(lag_path),
                  "--report", str(report_path)]
    ) == 0
    assert base_path.read_bytes() == lag_path.read_bytes()
    assert json.loads(report_path.read_text())["lag"] == 2
    assert "conserved:       True" in capsys.readouterr().out
