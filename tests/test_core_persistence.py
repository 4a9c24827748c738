"""Deployments round-tripped through the durable store, and the
per-record state codecs it is built on (:mod:`repro.core.persistence`)."""

import json
import random

import pytest

from repro.core import ZmailConfig, ZmailNetwork
from repro.core.isp import CompliantISP
from repro.core.persistence import (
    FORMAT_VERSION,
    bank_state,
    config_from_state,
    config_state,
    isp_aggregate_state,
    isp_state,
    load_bank_state,
    load_isp_aggregate_state,
    load_isp_state,
    load_user_state,
    user_state,
)
from repro.errors import ReplayDetected, SimulationError
from repro.obs.manifest import accounting_digest
from repro.sim import Address, TrafficKind
from repro.store import (
    DurableStore,
    attach_tracker,
    commit_network,
    init_store,
    restore_network,
)


def traffic(net, seed, messages):
    rng = random.Random(seed)
    n_isps, n_users = net.n_isps, net.users_per_isp
    for _ in range(messages):
        net.send(
            Address(rng.randrange(n_isps), rng.randrange(n_users)),
            Address(rng.randrange(n_isps), rng.randrange(n_users)),
            TrafficKind.NORMAL,
        )


def busy_network(seed=33, messages=500):
    """A busy deployment journaling into a fresh in-memory store.

    Returns ``(network, store, tracker)``; :func:`restored` commits the
    last barrier and reads the store back.
    """
    config = ZmailConfig(default_user_balance=40, auto_topup_amount=10)
    net = ZmailNetwork(
        n_isps=3, users_per_isp=6, compliant=[True, True, True],
        config=config, seed=seed,
    )
    store = DurableStore.create(":memory:")
    init_store(store, net)
    tracker = attach_tracker(net)
    net.fund_user(Address(0, 0), pennies=200, epennies=50)
    traffic(net, seed, messages)
    return net, store, tracker


def restored(net, store, tracker):
    commit_network(store, net, tracker, barrier=store.barrier + 1)
    return restore_network(store)


class TestRoundTrip:
    def test_total_value_preserved(self):
        net, *journal = busy_network()
        twin = restored(net, *journal)
        assert twin.total_value() == net.total_value()
        assert twin.expected_total_value() == net.expected_total_value()

    def test_user_purses_preserved(self):
        net, *journal = busy_network()
        twin = restored(net, *journal)
        for isp_id, isp in net.compliant_isps().items():
            other_isp = twin.isps[isp_id]
            for user in isp.ledger.users():
                other = other_isp.ledger.user(user.user_id)
                assert other.balance == user.balance
                assert other.account == user.account
                assert other.lifetime_sent == user.lifetime_sent
                assert other.sent_today == user.sent_today

    def test_credit_arrays_preserved(self):
        net, *journal = busy_network()
        twin = restored(net, *journal)
        for isp_id, isp in net.compliant_isps().items():
            assert twin.isps[isp_id].credit == isp.credit

    def test_reconciliation_still_consistent_after_restore(self):
        net, *journal = busy_network()
        assert restored(net, *journal).reconcile("direct").consistent

    def test_restored_network_keeps_working(self):
        net, *journal = busy_network()
        twin = restored(net, *journal)
        for i in range(50):
            twin.send(Address(0, i % 6), Address(1, (i + 1) % 6))
        assert twin.total_value() == twin.expected_total_value()

    def test_bank_seq_preserved(self):
        net, *journal = busy_network()
        net.reconcile("direct")
        net.reconcile("direct")
        net.bank.buy_epennies(0, value=10, nonce=12345)
        net.bank.buy_epennies(0, value=1, nonce=net._nonce_sources[0].next())
        twin = restored(net, *journal)
        assert twin.bank.next_seq == net.bank.next_seq
        # The bank's replay protection survived the restart, and so did
        # the ISP's nonce counter: its next trade replays no nonce.
        with pytest.raises(ReplayDetected):
            twin.bank.buy_epennies(0, value=10, nonce=12345)
        twin.bank.buy_epennies(0, value=1, nonce=twin._nonce_sources[0].next())

    def test_noncompliant_subset_preserved(self):
        net = ZmailNetwork(
            n_isps=3, users_per_isp=4, compliant=[True, False, True], seed=1
        )
        store = DurableStore.create(":memory:")
        init_store(store, net)
        tracker = attach_tracker(net)
        net.send(Address(0, 0), Address(2, 1))
        twin = restored(net, store, tracker)
        assert sorted(twin.compliant_isps()) == [0, 2]
        assert twin.total_value() == net.total_value()


class TestMalformedState:
    """A malformed record must fail loudly and descriptively."""

    def test_missing_key_raises_simulation_error_not_keyerror(self):
        net, _, _ = busy_network(messages=10)
        state = user_state(net.isps[0].ledger.user(0))
        del state["balance"]
        with pytest.raises(SimulationError, match="malformed user state"):
            load_user_state(net.isps[0].ledger.user(0), state)

    def test_missing_config_field_raises_simulation_error(self):
        state = config_state(ZmailConfig())
        del state["minavail"]
        with pytest.raises(SimulationError, match="malformed config state"):
            config_from_state(state)

    def test_wrong_type_raises_simulation_error(self):
        net, _, _ = busy_network(messages=10)
        state = isp_aggregate_state(net.isps[0])
        state["credit"] = 17
        with pytest.raises(SimulationError, match="malformed ISP journal"):
            load_isp_aggregate_state(net.isps[0], state)

    def test_version_error_stays_specific(self):
        # The version check must not be swallowed into "malformed".
        net, store, _ = busy_network(messages=5)
        store.commit([("net", "net", {"wrong": 1})], barrier=1,
                     meta={"journal_format_version": str(FORMAT_VERSION + 1)})
        with pytest.raises(SimulationError, match="journal format"):
            restore_network(store)

    def test_non_dict_state_raises_simulation_error(self):
        net, _, _ = busy_network(messages=5)
        with pytest.raises(SimulationError, match="malformed bank journal"):
            load_bank_state(net.bank, ["not", "a", "dict"])


class TestRestoreResumeEquivalence:
    """Restoring from the store then resuming equals never having stopped."""

    def test_same_digest_after_identical_continuation(self):
        straight, _, _ = busy_network(seed=5)
        snapshotted = restored(*busy_network(seed=5))
        traffic(straight, seed=77, messages=300)
        traffic(snapshotted, seed=77, messages=300)
        assert accounting_digest(straight) == accounting_digest(snapshotted)


class TestPerNodeJournals:
    """isp_state/bank_state: the crash/restart write-ahead journals."""

    def test_isp_journal_round_trip(self):
        net, _, _ = busy_network(seed=9)
        original = net.isps[1]
        journal = json.loads(json.dumps(isp_state(original), sort_keys=True))
        fresh = CompliantISP(1, net.users_per_isp, net.config)
        load_isp_state(fresh, journal)
        assert fresh.credit == original.credit
        assert fresh.ledger.pool == original.ledger.pool
        assert fresh.ledger.cash == original.ledger.cash
        assert fresh.stats == original.stats
        assert fresh.limit_hits == original.limit_hits
        assert fresh.zombie_suspects() == original.zombie_suspects()
        for user in original.ledger.users():
            twin = fresh.ledger.user(user.user_id)
            assert twin.balance == user.balance
            assert twin.account == user.account
            assert twin.sent_today == user.sent_today

    def test_isp_journal_malformed_raises_simulation_error(self):
        net, _, _ = busy_network(messages=10)
        journal = isp_state(net.isps[0])
        del journal["credit"]
        fresh = CompliantISP(0, net.users_per_isp, net.config)
        with pytest.raises(SimulationError, match="malformed ISP journal"):
            load_isp_state(fresh, journal)

    def test_bank_journal_round_trip_keeps_replay_protection(self):
        net, _, _ = busy_network(messages=10)
        net.bank.buy_epennies(0, value=10, nonce=12345)
        net.reconcile("direct")
        journal = json.loads(json.dumps(bank_state(net.bank), sort_keys=True))
        accounts_before = {i: net.bank.account_balance(i) for i in (0, 1, 2)}
        seq_before = net.bank.next_seq

        load_bank_state(net.bank, journal)
        assert net.bank.next_seq == seq_before
        for isp_id, balance in accounts_before.items():
            assert net.bank.account_balance(isp_id) == balance
        # The nonce sets survived: a replayed purchase is still rejected.
        with pytest.raises(ReplayDetected):
            net.bank.buy_epennies(0, value=10, nonce=12345)

    def test_bank_journal_malformed_raises_simulation_error(self):
        net, _, _ = busy_network(messages=5)
        journal = bank_state(net.bank)
        del journal["nonces"]
        with pytest.raises(SimulationError, match="malformed bank journal"):
            load_bank_state(net.bank, journal)
