"""The columnar batch executor: exact equivalence with the direct loop.

The contract under test (DESIGN.md §10): driving a scenario through
``repro.columnar`` must be *indistinguishable* from the direct loop —
identical summary counters, identical accounting digest over every
balance, identical per-reconcile-cut digests, and (when traced) a
byte-identical ordered event stream including timestamps and sequence
numbers. The hypothesis suite drives randomized small scenarios through
both executors so the equivalence claim rests on more than the canonical
workload; shrinking then hands back a minimal diverging scenario.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import load_plan
from repro.columnar import executor
from repro.core.config import ZmailConfig
from repro.core.protocol import ZmailNetwork
from repro.core.scenario import Scenario, SpammerSpec, ZombieSpec
from repro.errors import SimulationError
from repro.obs.manifest import accounting_digest
from repro.obs.trace import TraceRecorder
from repro.scenario import compile_scenario, run_plan
from repro.sim.clock import DAY, HOUR
from repro.sim.rng import SeededStreams
from repro.sim.workload import (
    Address,
    SendRequest,
    TrafficKind,
    merge_workloads,
)


CANONICAL = load_plan("canonical-3isp.yaml")
MACRO_DOC = os.path.join(
    os.path.dirname(__file__), "..", "perfbench", "worlds", "macro-columnar.json"
)


def macro_smoke_plan():
    """The benchmark's macro world at smoke scale: seed 7, two days, every
    traffic rate scaled by 0.05 (52,491 sends)."""
    with open(MACRO_DOC, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["seed"] = 7
    traffic = doc["traffic"]
    traffic["duration"] = 2 * DAY
    traffic["normal_rate_per_day"] *= 0.05
    for spammer in traffic["spammers"]:
        spammer["volume"] = int(spammer["volume"] * 0.05)
    for zombie in traffic["zombies"]:
        zombie["rate_per_hour"] *= 0.05
    return compile_scenario(doc)


#: World name -> (plan, pinned send count). The macro smoke world is a
#: tight-balance world (``fuzz.cluster_comparable`` is false), so only
#: the instant-delivery executors are compared on it.
WORLDS = {
    "canonical-3isp": (CANONICAL, 3_802),
    "macro-smoke": (macro_smoke_plan(), 52_491),
}


def traced(mode):
    """The canonical world run with a tracer; returns the recorder."""
    scenario = CANONICAL.scenario(mode)
    scenario.tracer = TraceRecorder()
    scenario.run()
    return scenario.tracer


def run_both(scenario: Scenario):
    """Run one scenario spec through the direct and columnar executors."""
    scenario.mode = "direct"
    direct = scenario.run()
    scenario.mode = "columnar"
    columnar = scenario.run()
    return direct, columnar


@pytest.fixture(scope="class", params=list(WORLDS))
def world_runs(request):
    """One world's direct, columnar and engine results."""
    plan, sends = WORLDS[request.param]
    runs = {mode: plan.scenario(mode).run()
            for mode in ("direct", "columnar", "engine")}
    assert runs["direct"].sends_attempted == sends
    return runs


class TestCanonicalEquivalence:
    def test_summary_and_accounting_match_direct(self, world_runs):
        direct = world_runs["direct"]
        for mode in ("columnar", "engine"):
            assert world_runs[mode].summary() == direct.summary(), mode
            assert accounting_digest(world_runs[mode].network) == (
                accounting_digest(direct.network)
            ), mode

    def test_every_reconcile_cut_digest_matches(self, world_runs):
        direct, columnar = world_runs["direct"], world_runs["columnar"]
        assert direct.cut_digests  # daily cuts + the final one
        assert columnar.cut_digests == direct.cut_digests

    def test_traced_event_stream_is_byte_identical(self):
        # The strongest claim: with tracing on, the columnar executor
        # reproduces the direct loop's ordered event stream exactly —
        # same events, same virtual timestamps, same sequence numbers.
        direct_rec = traced("direct")
        columnar_rec = traced("columnar")
        assert direct_rec.events_emitted == columnar_rec.events_emitted
        assert direct_rec.digest() == columnar_rec.digest()

    def test_columnar_runs_are_deterministic(self):
        first = CANONICAL.scenario("columnar").run()
        second = CANONICAL.scenario("columnar").run()
        assert first.summary() == second.summary()
        assert first.cut_digests == second.cut_digests
        assert accounting_digest(first.network) == accounting_digest(
            second.network
        )

    def test_invariant_manifest_identical_across_all_executors(self):
        documents = {
            mode: run_plan(CANONICAL, mode)["manifest"].to_json()
            for mode in ("direct", "columnar", "engine", "cluster")
        }
        assert len(set(documents.values())) == 1, documents.keys()


class TestColumnStreams:
    def test_column_streams_match_request_streams(self):
        # The chunk plan must replay exactly the request sequence the
        # direct loop consumes: same order, same senders/recipients/kinds.
        scenario = CANONICAL.scenario()
        requests = list(
            merge_workloads(
                *scenario.workload_streams(SeededStreams(scenario.seed))
            )
        )
        from repro.columnar.plan import KIND_ORDER, merge_column_streams

        upi = scenario.users_per_isp
        flat = []
        for chunk in merge_column_streams(
            scenario.workload_column_streams(SeededStreams(scenario.seed))
        ):
            for i in range(len(chunk)):
                flat.append(
                    (
                        float(chunk.times[i]),
                        int(chunk.senders[i]),
                        int(chunk.recipients[i]),
                        KIND_ORDER[chunk.kinds[i]],
                    )
                )
        assert len(flat) == len(requests)
        for got, request in zip(flat, requests):
            sender = request.sender.isp * upi + request.sender.user
            recipient = request.recipient.isp * upi + request.recipient.user
            assert got == (request.time, sender, recipient, request.kind)


class TestGuards:
    def test_non_compliant_deployment_is_rejected(self):
        scenario = CANONICAL.scenario("columnar")
        scenario.compliant = [True, True, False]
        with pytest.raises(SimulationError):
            scenario.run()

    def test_unknown_canonical_mode_is_rejected(self):
        with pytest.raises(SimulationError):
            CANONICAL.scenario("parallel")


# -- the contended residual -------------------------------------------------


class ScriptedWorkload:
    """Fixed ``(time, sender gid, recipient gid)`` normal-mail rows."""

    def __init__(self, rows, users_per_isp):
        self.rows = rows
        self.upi = users_per_isp

    def generate_columns(self):
        times, senders, recipients = zip(*self.rows)
        yield (
            np.array(times, dtype=np.float64),
            np.array(senders, dtype=np.int64),
            np.array(recipients, dtype=np.int64),
        )

    def generate(self):
        upi = self.upi
        for t, s, r in self.rows:
            yield SendRequest(
                t,
                Address(s // upi, s % upi),
                Address(r // upi, r % upi),
                TrafficKind.NORMAL,
            )


def scripted(rows, **spec):
    """A scenario whose only traffic is ``rows``, on every executor."""
    scenario = Scenario(normal_rate_per_day=0.0, **spec)
    workload = ScriptedWorkload(rows, scenario.users_per_isp)
    scenario._workloads = lambda streams: iter(
        [(TrafficKind.NORMAL, None, workload, (), scenario.duration)]
    )
    return scenario


@pytest.fixture
def observed(monkeypatch):
    """Record each ISP's credit dict at every reconcile, and each
    residual's size and distinct users."""
    seen = {"credits": [], "residuals": []}
    reconcile = ZmailNetwork.reconcile
    run_scalar = executor._run_scalar

    def recording_reconcile(network, *args, **kwargs):
        seen["credits"].append(
            {i: dict(isp.credit) for i, isp in network.isps.items()}
        )
        return reconcile(network, *args, **kwargs)

    def recording_run_scalar(*args):
        _np, _net, _state, senders, recipients, _kinds, mask = args[:7]
        users = np.union1d(senders[mask], recipients[mask])
        seen["residuals"].append((int(mask.sum()), len(users)))
        return run_scalar(*args)

    monkeypatch.setattr(ZmailNetwork, "reconcile", recording_reconcile)
    monkeypatch.setattr(executor, "_run_scalar", recording_run_scalar)
    return seen


def run_observed(scenario, observed):
    """``run_both`` plus the credits and residuals each executor saw."""
    scenario.mode = "direct"
    direct = scenario.run()
    direct_credits = observed["credits"][:]
    observed["credits"].clear()
    scenario.mode = "columnar"
    columnar = scenario.run()
    assert columnar.summary() == direct.summary()
    assert columnar.cut_digests == direct.cut_digests
    assert accounting_digest(columnar.network) == accounting_digest(
        direct.network
    )
    assert observed["credits"] == direct_credits
    for isp_id, isp in direct.network.isps.items():
        assert columnar.network.isps[isp_id].stats == isp.stats
    return direct, observed["credits"], observed["residuals"]


class TestContendedResidual:
    def test_pool_drain_zero_net_credit_and_limit_in_one_sub_batch(
        self, observed
    ):
        # 3 ISPs x 4 users, gid = isp * 4 + user, all inside one hour:
        # no reconcile or midnight cuts the single sub-batch.
        # * gid 0 (ISP 0) sends 4 local mails on a 1-e-penny balance. The
        #   2nd and 3rd are blocked on balance, auto-topped up by 1 from
        #   the 2-e-penny pool, and retried; the 4th finds the pool dry
        #   and stays blocked, so ISP 0 books 3 balance blocks for 1
        #   final blocked send.
        # * gid 4 (ISP 1) and gid 8 (ISP 2) mail each other once: the
        #   ISP 1/ISP 2 credit nets to zero, yet both keys must exist.
        # * gid 8, funded, sends 6 with a daily limit of 4: the last two
        #   block on the limit mid-batch.
        # * gid 2 -> gid 5 is a safe send beside the residual.
        rows = [
            (60.0, 0, 1), (120.0, 8, 4), (180.0, 4, 8), (240.0, 0, 1),
            (300.0, 8, 9), (360.0, 0, 1), (420.0, 8, 9), (480.0, 0, 1),
            (540.0, 8, 9), (600.0, 8, 9), (660.0, 2, 5), (720.0, 8, 9),
        ]
        scenario = scripted(
            rows,
            n_isps=3,
            users_per_isp=4,
            duration=HOUR,
            spammers=[SpammerSpec(Address(2, 0), volume=0, war_chest=10)],
            config=ZmailConfig(
                default_daily_limit=4,
                default_user_balance=1,
                initial_pool=2,
                minavail=0,
                auto_topup_amount=1,
            ),
        )
        direct, credits, residuals = run_observed(scenario, observed)
        assert residuals == [(11, 5)]  # every row but the safe one
        isps = direct.network.isps
        assert isps[0].ledger.pool == 0
        assert isps[0].stats.blocked_balance == 3
        assert direct.blocked_balance == 1
        assert isps[2].stats.blocked_limit == 2
        assert credits[-1][1] == {0: -1, 2: 0}
        assert credits[-1][2] == {1: 0}
        # Traced, the top-ups are emitted at their messages' positions.
        digests = set()
        for mode in ("direct", "columnar"):
            scenario.mode = mode
            scenario.tracer = TraceRecorder()
            scenario.run()
            digests.add(scenario.tracer.digest())
        assert len(digests) == 1

    def test_residual_over_a_strict_subset_of_users(self, observed):
        # One underfunded spammer in a 4 x 256 world: only its mail and
        # mail to it are contended, so each residual gathers a strict
        # subset of users and local ids differ from gids.
        scenario = Scenario(
            n_isps=4,
            users_per_isp=256,
            seed=5,
            duration=2 * DAY,
            normal_rate_per_day=1.0,
            spammers=[SpammerSpec(Address(2, 17), volume=300, start=HOUR)],
            config=ZmailConfig(
                default_user_balance=20, default_user_account=60
            ),
            reconcile_every=DAY,
        )
        direct, _credits, residuals = run_observed(scenario, observed)
        assert residuals
        half = scenario.n_isps * scenario.users_per_isp // 2
        assert all(0 < users < half for _messages, users in residuals)
        assert direct.blocked_balance > 0


# -- randomized equivalence ------------------------------------------------

N_ISPS, USERS = 3, 5

_addresses = st.builds(
    Address,
    isp=st.integers(min_value=0, max_value=N_ISPS - 1),
    user=st.integers(min_value=0, max_value=USERS - 1),
)

_spammers = st.builds(
    SpammerSpec,
    address=_addresses,
    volume=st.integers(min_value=0, max_value=120),
    war_chest=st.integers(min_value=0, max_value=80),
    start=st.floats(min_value=0.0, max_value=DAY, allow_nan=False),
    duration=st.floats(min_value=HOUR, max_value=DAY, allow_nan=False),
)

_zombies = st.builds(
    lambda address, start, length, rate: ZombieSpec(
        address, rate_per_hour=rate, start=start, end=start + length
    ),
    address=_addresses,
    start=st.floats(min_value=0.0, max_value=DAY, allow_nan=False),
    length=st.floats(min_value=HOUR, max_value=DAY, allow_nan=False),
    rate=st.floats(min_value=0.5, max_value=40.0, allow_nan=False),
)

_scenarios = st.builds(
    Scenario,
    n_isps=st.just(N_ISPS),
    users_per_isp=st.just(USERS),
    config=st.builds(
        ZmailConfig,
        default_daily_limit=st.integers(min_value=1, max_value=40),
        default_user_balance=st.integers(min_value=0, max_value=30),
        auto_topup_amount=st.integers(min_value=0, max_value=15),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    duration=st.floats(min_value=HOUR, max_value=2 * DAY, allow_nan=False),
    normal_rate_per_day=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.5, max_value=25.0, allow_nan=False),
    ),
    spammers=st.lists(_spammers, max_size=2),
    zombies=st.lists(_zombies, max_size=1),
    reconcile_every=st.sampled_from([0.0, 6 * HOUR, DAY]),
)


class TestRandomizedEquivalence:
    @given(scenario=_scenarios)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_columnar_matches_direct_on_random_scenarios(self, scenario):
        # Tight limits, tiny balances and mid-day campaign starts push
        # most messages into the contended/blocked classes — the paths
        # where a vectorization bug would actually show up.
        direct, columnar = run_both(scenario)
        assert columnar.summary() == direct.summary()
        assert columnar.cut_digests == direct.cut_digests
        assert accounting_digest(columnar.network) == accounting_digest(
            direct.network
        )
