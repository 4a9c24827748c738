"""Property tests: Zmail invariants survive *any* seeded fault mix.

The chaos harness's core claim, stated as hypothesis properties: for any
drop/duplicate/reorder/delay mix with rates < 1.0 carried under the
reliable layer — and any crash/restart schedule on top — the deployment
drains to quiescence with every invariant monitor green. Counterexamples
shrink, and every assertion message carries the seed and fault mix
needed to replay the exact failing run.

``derandomize=True`` keeps CI stable: the examples are drawn
deterministically from the property's signature, so a red run is a real
regression, not sampling noise.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import ChaosDeployment, CrashEvent, FaultSpec
from repro.core import ZmailConfig
from repro.obs.schema import LEDGER_EVENT_TYPES
from repro.obs.trace import AdditiveMultisetDigest, DigestSink, TraceRecorder
from repro.sim import SeededStreams
from repro.sim.rng import derive_seed
from repro.sim.workload import NormalUserWorkload

#: Hypothesis re-runs the wrapped function many times per test; each run
#: is a full (small) simulation, so cap the example count.
CHAOS_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

FAULTS = st.fixed_dictionaries({
    "drop_rate": st.floats(0.0, 0.6),
    "duplicate_rate": st.floats(0.0, 0.6),
    "reorder_rate": st.floats(0.0, 0.6),
    "reorder_delay": st.floats(0.0, 3.0),
    "extra_delay": st.floats(0.0, 0.5),
})


def run_deployment(seed, faults, crashes=(), duration=120.0, tracer=None):
    deployment = ChaosDeployment(
        n_isps=2,
        users_per_isp=3,
        seed=seed,
        config=ZmailConfig(default_user_balance=1000, auto_topup_amount=0),
        faults=FaultSpec(**faults),
        monitor_interval=2.0,
        tracer=tracer,
    )
    for crash in crashes:
        deployment.schedule_crash(crash)
    workload = NormalUserWorkload(
        n_isps=2,
        users_per_isp=3,
        rate_per_day=20_000.0,
        streams=SeededStreams(derive_seed(seed, "chaos-workload")),
    )
    converged = deployment.run(
        workload.generate(duration), until=duration, drain_window=3_000.0
    )
    return deployment, converged


@CHAOS_SETTINGS
@given(faults=FAULTS, seed=st.integers(0, 2**32 - 1))
def test_any_fault_mix_preserves_invariants(faults, seed):
    deployment, converged = run_deployment(seed, faults)
    replay = f"replay: campaign seed={seed} faults={faults}"
    assert converged, f"did not drain to quiescence; {replay}"
    assert deployment.monitor.checks_run > 0
    assert deployment.monitor.green, (
        f"invariant violated: {deployment.monitor.first_violation}; {replay}"
    )
    network = deployment.network
    assert network.total_value() == network.expected_total_value(), (
        f"value not conserved; {replay}"
    )
    # Reliable layer earned the §3 channel assumption back: every submit
    # that produced a letter was delivered exactly once.
    assert network.paid_letters_in_flight == 0, replay


@CHAOS_SETTINGS
@given(
    faults=FAULTS,
    seed=st.integers(0, 2**32 - 1),
    crash_at=st.floats(10.0, 80.0),
    down_for=st.floats(5.0, 60.0),
    node=st.sampled_from(["isp0", "isp1", "bank"]),
)
def test_fault_mix_with_crash_restart_preserves_invariants(
    faults, seed, crash_at, down_for, node
):
    crash = CrashEvent(node=node, at=crash_at, down_for=down_for)
    deployment, converged = run_deployment(seed, faults, crashes=[crash])
    replay = (
        f"replay: campaign seed={seed} faults={faults} "
        f"crash={node}@{crash_at}+{down_for}"
    )
    assert converged, f"did not drain to quiescence; {replay}"
    assert deployment.crash_controller.crashes == 1, replay
    assert deployment.crash_controller.restarts == 1, replay
    assert deployment.monitor.green, (
        f"invariant violated: {deployment.monitor.first_violation}; {replay}"
    )
    network = deployment.network
    assert network.total_value() == network.expected_total_value(), (
        f"value not conserved; {replay}"
    )


def _ledger_trace_digest(seed, faults, crashes=()):
    """The order-insensitive digest over the run's ledger-visible events."""
    ledger = AdditiveMultisetDigest(include_types=LEDGER_EVENT_TYPES)
    deployment, converged = run_deployment(
        seed, faults, crashes=crashes,
        tracer=TraceRecorder(sink=DigestSink(ledger)),
    )
    assert converged, f"did not drain; seed={seed} faults={faults}"
    assert deployment.monitor.green, deployment.monitor.first_violation
    return ledger.digest()


def test_ledger_trace_differential_faults_are_invisible():
    """Differential oracle: faults leave no trace in the *ledger* events.

    Under the reliable layer, the multiset of send/deliver/topup/trade
    events (timestamps and interleaving excluded) from a heavily faulty
    run must be identical to the fault-free run of the same seed — the
    wire chaos is fully absorbed below the accounting.
    """
    clean = _ledger_trace_digest(7, {})
    faulty = _ledger_trace_digest(
        7,
        {
            "drop_rate": 0.25,
            "duplicate_rate": 0.2,
            "reorder_rate": 0.2,
            "reorder_delay": 2.0,
        },
    )
    assert faulty == clean, (
        "fault injection changed the ledger-event multiset: the reliable "
        "layer leaked wire faults into the accounting"
    )


def test_ledger_trace_differential_crash_recovery_is_complete():
    """Post-recovery, a crashy run's ledger events match the clean run.

    A crash loses volatile state only; journals plus retransmission must
    reconstruct every accounting action — so the recovered run's ledger
    trace digest equals the fault-free one.
    """
    clean = _ledger_trace_digest(11, {})
    crashy = _ledger_trace_digest(
        11,
        {"drop_rate": 0.1, "duplicate_rate": 0.1},
        crashes=[CrashEvent(node="isp1", at=30.0, down_for=20.0)],
    )
    assert crashy == clean, (
        "crash/restart changed the ledger-event multiset: recovery lost "
        "or duplicated accounting actions"
    )


@CHAOS_SETTINGS
@given(faults=FAULTS, seed=st.integers(0, 2**16))
def test_fault_mix_runs_are_bit_reproducible(faults, seed):
    first, _ = run_deployment(seed, faults, duration=60.0)
    second, _ = run_deployment(seed, faults, duration=60.0)
    assert first.digest() == second.digest(), (
        f"same seed, different digest; seed={seed} faults={faults}"
    )
    assert first.stats() == second.stats(), (
        f"same seed, different counters; seed={seed} faults={faults}"
    )
