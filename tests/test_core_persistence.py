"""Deployments round-tripped through the durable store, and the
per-record state codecs it is built on (:mod:`repro.core.persistence`)."""

import dataclasses
import json
import random

import pytest

from repro.core import ZmailConfig, ZmailNetwork
from repro.core.isp import CompliantISP
from repro.core.persistence import (
    FORMAT_VERSION,
    config_from_state,
    config_state,
    isp_aggregate_state,
    load_isp_aggregate_state,
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
from repro.store.network import isp_puts, load_isps
from repro.store.codec import encode_payload


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
            load_user_state(net.isps[0], 0, state)

    @pytest.mark.parametrize(
        "field, value",
        [("balance", "7"), ("account", 2.9), ("sent_today", -4),
         ("daily_limit", True), ("surplus", 1)],
        ids=["str-balance", "float-account", "negative-counter",
             "bool-limit", "extra-key"],
    )
    def test_bad_user_field_raises_naming_it(self, field, value):
        net, _, _ = busy_network(messages=10)
        user = net.isps[0].ledger.user(0)
        before = user_state(user)
        state = {**before, field: value}
        with pytest.raises(
            SimulationError,
            match=f"malformed user state '0:0': field '{field}'",
        ):
            load_user_state(net.isps[0], 0, state)
        assert user_state(user) == before  # nothing half-loaded

    def test_missing_config_field_raises_simulation_error(self):
        state = config_state(ZmailConfig())
        del state["minavail"]
        with pytest.raises(SimulationError, match="malformed config state"):
            config_from_state(state)

    @pytest.mark.parametrize(
        "field, value",
        [("use_crypto", "no"), ("default_daily_limit", 2.5)],
        ids=["str-flag", "float-limit"],
    )
    def test_bad_config_field_raises_naming_it(self, field, value):
        state = {**config_state(ZmailConfig()), field: value}
        with pytest.raises(SimulationError, match=f"field '{field}'"):
            config_from_state(state)

    def test_wrong_type_raises_simulation_error(self):
        net, _, _ = busy_network(messages=10)
        state = isp_aggregate_state(net.isps[0])
        state["credit"] = 17
        with pytest.raises(SimulationError, match="malformed ISP aggregate"):
            load_isp_aggregate_state(net.isps[0], state)

    @pytest.mark.parametrize(
        "field, value, path",
        [("pool", "5", "pool"),
         ("compliance_view", {"1": "false"}, "compliance_view.1"),
         ("limit_hits", {"0": "3"}, "limit_hits.0"),
         ("isp_id", 2, "isp_id")],
        ids=["str-pool", "str-flag", "str-hits", "other-isp"],
    )
    def test_bad_isp_field_raises_naming_it(self, field, value, path):
        net, _, _ = busy_network(messages=10)
        isp = net.isps[0]
        before = isp_aggregate_state(isp)
        state = {**before, field: value}
        with pytest.raises(
            SimulationError,
            match=f"malformed ISP aggregate '0': field '{path}'",
        ):
            load_isp_aggregate_state(isp, state)
        assert isp_aggregate_state(isp) == before

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
            net.bank.load_state(["not", "a", "dict"])


class TestRestoreResumeEquivalence:
    """Restoring from the store then resuming equals never having stopped."""

    def test_same_digest_after_identical_continuation(self):
        straight, _, _ = busy_network(seed=5)
        snapshotted = restored(*busy_network(seed=5))
        traffic(straight, seed=77, messages=300)
        traffic(snapshotted, seed=77, messages=300)
        assert accounting_digest(straight) == accounting_digest(snapshotted)


class TestPerNodeJournals:
    """The crash/restart records: a compliant ISP's rows (``isp_puts`` /
    ``load_isps``) and the bank's ``Bank.state_dict``."""

    def test_isp_journal_round_trip(self):
        net, store, _ = busy_network(seed=9)
        original = net.isps[1]
        # The store also holds isp0's and isp2's rows: the loader skips them.
        store.commit(isp_puts(original), barrier=store.barrier + 1)
        fresh = CompliantISP(1, net.users_per_isp, net.config)
        assert load_isps(store, net, {1: fresh}) == 1 + net.users_per_isp
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
        puts = isp_puts(net.isps[0])
        del puts[0][2]["credit"]
        store = DurableStore.create(":memory:")
        store.commit(puts, barrier=1)
        fresh = CompliantISP(0, net.users_per_isp, net.config)
        with pytest.raises(SimulationError, match="malformed ISP aggregate"):
            load_isps(store, net, {0: fresh})

    def test_isp_without_aggregate_raises_simulation_error(self):
        net, _, _ = busy_network(messages=10)
        store = DurableStore.create(":memory:")
        store.commit(isp_puts(net.isps[0])[1:], barrier=1)
        fresh = CompliantISP(0, net.users_per_isp, net.config)
        with pytest.raises(SimulationError, match="no aggregate for isp0"):
            load_isps(store, net, {0: fresh})

    def test_bank_journal_round_trip_keeps_replay_protection(self):
        net, _, _ = busy_network(messages=10)
        net.bank.buy_epennies(0, value=10, nonce=12345)
        net.reconcile("direct")
        journal = json.loads(json.dumps(net.bank.state_dict(), sort_keys=True))
        accounts_before = {i: net.bank.account_balance(i) for i in (0, 1, 2)}
        seq_before = net.bank.next_seq

        net.bank.load_state(journal)
        assert net.bank.next_seq == seq_before
        for isp_id, balance in accounts_before.items():
            assert net.bank.account_balance(isp_id) == balance
        # The nonce sets survived: a replayed purchase is still rejected.
        with pytest.raises(ReplayDetected):
            net.bank.buy_epennies(0, value=10, nonce=12345)

    def test_bank_journal_malformed_raises_simulation_error(self):
        net, _, _ = busy_network(messages=5)
        journal = net.bank.state_dict()
        del journal["nonces"]
        with pytest.raises(SimulationError, match="malformed bank journal"):
            net.bank.load_state(journal)

    @pytest.mark.parametrize(
        "nonces",
        [[5, 5], "12", [1, "2"], [True], {"1": 2}],
        ids=["repeated", "string", "str-item", "bool-item", "dict"],
    )
    def test_bank_journal_bad_nonces_raise_simulation_error(self, nonces):
        net, _, _ = busy_network(messages=5)
        journal = net.bank.state_dict()
        journal["nonces"]["0"] = nonces
        before = net.bank.state_dict()
        with pytest.raises(SimulationError, match="malformed bank journal"):
            net.bank.load_state(journal)
        assert net.bank.state_dict() == before  # nothing half-loaded

    @pytest.mark.parametrize(
        "field, key, value",
        [("compliant", "0", "false"), ("accounts", "0", 2.9),
         ("seq", None, "3"), ("seq", None, -1)],
        ids=["str-compliant", "float-account", "str-seq", "negative-seq"],
    )
    def test_bank_journal_bad_field_raises_naming_it(self, field, key, value):
        net, _, _ = busy_network(messages=5)
        journal = net.bank.state_dict()
        if key is None:
            journal[field] = value
        else:
            journal[field][key] = value
        before = net.bank.state_dict()
        path = field if key is None else f"{field}.{key}"
        with pytest.raises(
            SimulationError,
            match=f"malformed bank journal 'bank': field '{path}'",
        ):
            net.bank.load_state(journal)
        assert net.bank.state_dict() == before

    def test_aggregate_stats_match_asdict_and_do_not_alias(self):
        net, _, _ = busy_network(seed=9)
        isp = net.isps[1]
        assert isp.stats.sent_paid and isp.stats.received_paid  # populated
        state = isp_aggregate_state(isp)
        assert state["stats"] == dataclasses.asdict(isp.stats)
        assert encode_payload(state["stats"]) == encode_payload(
            dataclasses.asdict(isp.stats)
        )
        before = encode_payload(state)
        isp.stats.sent_paid += 1
        state["stats"]["received_paid"] += 1
        assert encode_payload(isp_aggregate_state(isp)) != before
        assert state["stats"]["sent_paid"] == isp.stats.sent_paid - 1
        assert isp.stats.received_paid == state["stats"]["received_paid"] - 1
