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

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import load_plan
from repro.columnar import executor
from repro.core.config import NonCompliantMailPolicy, ZmailConfig
from repro.core.protocol import ZmailNetwork
from repro.core.scenario import Scenario, SpammerSpec, ZombieSpec
from repro.errors import SimulationError
from repro.obs.manifest import accounting_digest
from repro.obs.trace import ListSink, TraceRecorder
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
    """One world's direct and columnar results."""
    plan, sends = WORLDS[request.param]
    runs = {mode: plan.scenario(mode).run() for mode in ("direct", "columnar")}
    assert runs["direct"].sends_attempted == sends
    return runs


class TestCanonicalEquivalence:
    def test_summary_and_accounting_match_direct(self, world_runs):
        direct, columnar = world_runs["direct"], world_runs["columnar"]
        assert columnar.summary() == direct.summary()
        assert accounting_digest(columnar.network) == (
            accounting_digest(direct.network)
        )

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
            for mode in ("direct", "columnar", "cluster")
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
    def test_unknown_canonical_mode_is_rejected(self):
        with pytest.raises(SimulationError):
            CANONICAL.scenario("parallel").run()

    def test_mode_assigned_after_construction_is_checked_at_run(self):
        # run() checks the mode it dispatches on, so a mode set after
        # construction cannot fall through to the direct loop.
        scenario = CANONICAL.scenario("columnar")
        scenario.mode = "engine"
        with pytest.raises(SimulationError, match="'engine'"):
            scenario.run()


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
        [(TrafficKind.NORMAL, workload, (), scenario.duration)]
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
    """``run_both`` plus the credits and residuals each executor saw;
    both executors must agree on every ISP's stats and credits, every
    user's counters and every metric."""
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
    assert user_counters(columnar.network) == user_counters(direct.network)
    assert columnar.network.metrics.snapshot() == (
        direct.network.metrics.snapshot()
    )
    return direct, observed["credits"], observed["residuals"]


def user_counters(network):
    """Every compliant user's ``UserAccount`` fields and limit hits."""
    return {
        (isp_id, user.user_id): (
            dataclasses.astuple(user), isp.limit_hits.get(user.user_id, 0)
        )
        for isp_id, isp in network.compliant_isps().items()
        for user in isp.ledger.users()
    }


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

    def test_every_residual_outcome_in_one_sub_batch(self, observed):
        # 2 ISPs x 4 users, one sub-batch; every user starts with 1
        # e-penny and 1 real penny, the daily limit is 4 and a top-up buys
        # 1 e-penny from a 50-e-penny pool.
        # * gid 0 sends 4. The 2nd is blocked on balance and rescued by a
        #   top-up that empties its account; safe gid 5 then mails it the
        #   e-penny that pays for the 3rd; the 4th is refused on balance
        #   with the pool far from dry.
        # * gid 7, funded, sends 5: first to itself, then the 5th blocks
        #   on the limit after four successes.
        # * gid 1 -> gid 4 is a safe send beside the residual.
        rows = [
            (60.0, 0, 4), (120.0, 7, 7), (180.0, 0, 1), (240.0, 5, 0),
            (300.0, 7, 2), (360.0, 0, 6), (420.0, 7, 3), (480.0, 0, 1),
            (540.0, 7, 6), (600.0, 1, 4), (660.0, 7, 5),
        ]
        scenario = scripted(
            rows,
            n_isps=2,
            users_per_isp=4,
            duration=HOUR,
            spammers=[SpammerSpec(Address(1, 3), volume=0, war_chest=10)],
            config=ZmailConfig(
                default_daily_limit=4,
                default_user_balance=1,
                default_user_account=1,
                initial_pool=50,
                minavail=0,
                auto_topup_amount=1,
            ),
        )
        direct, _credits, residuals = run_observed(scenario, observed)
        assert residuals == [(10, 8)]  # every row but the safe one
        counters = direct.network.metrics.snapshot()["counters"]
        for name in ("send.blocked_balance", "topup.count", "topup.epennies"):
            assert counters[name] == 1
        isps = direct.network.isps
        assert isps[0].stats.blocked_balance == 2  # the refusal + the top-up
        assert isps[1].stats.blocked_limit == 1
        assert isps[0].ledger.pool == 49
        assert isps[0].ledger.user(0).account == 0
        assert isps[1].ledger.user(3).sent_today == 4
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


# -- unpaid mail (§5 incremental deployment) ---------------------------------


def mail_counters(network):
    """Every ISP's ``DeliveryStats``, every compliant user's inbox, junk
    folder and received count, and the network's metric counters."""
    users = {
        (isp_id, user.user_id): (
            user.inbox, user.junk_folder, user.lifetime_received
        )
        for isp_id, isp in network.compliant_isps().items()
        for user in isp.ledger.users()
    }
    stats = {isp_id: isp.stats for isp_id, isp in network.isps.items()}
    return stats, users, network.metrics.snapshot()["counters"]


def assert_executors_agree(scenario):
    """Direct and columnar agree on every observable of ``scenario``:
    summary, cut and final accounting digests, mail and user counters, and
    the traced ordered event stream."""
    direct, columnar = run_both(scenario)
    assert columnar.summary() == direct.summary()
    assert columnar.cut_digests == direct.cut_digests
    assert accounting_digest(columnar.network) == accounting_digest(
        direct.network
    )
    assert mail_counters(columnar.network) == mail_counters(direct.network)
    assert user_counters(columnar.network) == user_counters(direct.network)
    recorders = []
    for mode in ("direct", "columnar"):
        scenario.mode = mode
        scenario.tracer = TraceRecorder()
        scenario.run()
        recorders.append(scenario.tracer)
    direct_rec, columnar_rec = recorders
    assert columnar_rec.events_emitted == direct_rec.events_emitted
    assert columnar_rec.digest() == direct_rec.digest()
    return direct


class TestUnpaidClass:
    @pytest.mark.parametrize(
        "policy", [policy.value for policy in NonCompliantMailPolicy]
    )
    def test_mixed_world_matches_direct_under_every_policy(self, policy):
        # mixed-4isp: isp3 is non-compliant and hosts an unfunded spammer,
        # so every policy branch of the unpaid class carries traffic.
        scenario = load_plan("mixed-4isp.yaml").scenario()
        scenario.config = dataclasses.replace(
            scenario.config, noncompliant_policy=NonCompliantMailPolicy(policy)
        )
        direct = assert_executors_agree(scenario)
        stats = direct.network.isps[0].stats
        assert stats.sent_unpaid > 0 and stats.received_unpaid + (
            stats.discarded
        ) > 0

    @pytest.mark.parametrize("mode", ["direct", "columnar"])
    @pytest.mark.parametrize(
        "policy", [policy.value for policy in NonCompliantMailPolicy]
    )
    def test_spam_delivered_counts_only_spam_that_reached_a_user(
        self, policy, mode
    ):
        scenario = load_plan("mixed-4isp.yaml").scenario(mode)
        scenario.config = dataclasses.replace(
            scenario.config, noncompliant_policy=NonCompliantMailPolicy(policy)
        )
        sink = ListSink()
        scenario.tracer = TraceRecorder(sink=sink)
        result = scenario.run()
        reached = [
            event for event in sink.events()
            if event["type"] == "deliver" and event["kind"] == "spam"
        ]
        assert result.spam_delivered == sum(e["ok"] for e in reached)
        # isp3's unfunded spammer mails compliant users unpaid, so under
        # DISCARD some spam is handed over and dropped.
        dropped = sum(not e["ok"] for e in reached)
        assert (dropped > 0) == (policy == "discard")


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


@st.composite
def _configs(draw):
    """Tight limits and small purses; a small pool (0 included) with
    ``minavail`` at most the pool, so top-ups reach empty accounts and dry
    pools, and a midnight rebalance need not refill them."""
    pool = draw(st.integers(min_value=0, max_value=40))
    return ZmailConfig(
        default_daily_limit=draw(st.integers(min_value=1, max_value=40)),
        default_user_balance=draw(st.integers(min_value=0, max_value=30)),
        default_user_account=draw(st.integers(min_value=0, max_value=60)),
        initial_pool=pool,
        minavail=draw(st.integers(min_value=0, max_value=pool)),
        auto_topup_amount=draw(st.integers(min_value=0, max_value=15)),
        noncompliant_policy=draw(st.sampled_from(NonCompliantMailPolicy)),
    )


_scenarios = st.builds(
    Scenario,
    n_isps=st.just(N_ISPS),
    users_per_isp=st.just(USERS),
    # At least one compliant ISP; the rest send and receive unpaid (§5).
    compliant=st.lists(
        st.booleans(), min_size=N_ISPS, max_size=N_ISPS
    ).filter(any),
    config=_configs(),
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
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_columnar_matches_direct_on_random_scenarios(self, scenario):
        # Tight limits, tiny balances and mid-day campaign starts push
        # most messages into the contended/blocked classes — the paths
        # where a vectorization bug would actually show up. Non-compliant
        # ISPs under every policy exercise the unpaid class.
        assert_executors_agree(scenario)
