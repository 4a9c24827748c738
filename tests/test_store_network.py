"""Tests for genesis+deltas network persistence through the durable store."""

import time

import pytest

from repro.core import ZmailConfig, ZmailNetwork
from repro.errors import SimulationError
from repro.sim import Address
from repro.store import (
    DirtyTracker,
    DurableStore,
    attach_tracker,
    commit_network,
    durable_digest,
    init_store,
    restore_network,
)


@pytest.fixture
def store(tmp_path):
    s = DurableStore.create(str(tmp_path / "net.db"))
    yield s
    s.close()


def _fresh(seed=11, **kwargs):
    return ZmailNetwork(n_isps=3, users_per_isp=5, seed=seed, **kwargs)


class TestDirtyTracking:
    def test_send_touches_sender_and_recipient(self, store):
        network = _fresh()
        tracker = attach_tracker(network)
        network.send(Address(0, 1), Address(1, 2))
        assert (0, 1) in tracker.dirty
        assert (1, 2) in tracker.dirty

    def test_fund_user_touches(self, store):
        network = _fresh()
        tracker = attach_tracker(network)
        network.fund_user(Address(2, 3), epennies=10)
        assert (2, 3) in tracker.dirty

    def test_drain_sorted_and_clears(self):
        network = _fresh()
        tracker = attach_tracker(network)
        network.send(Address(2, 4), Address(0, 0))
        drained = tracker.drain()
        assert drained == sorted(drained)
        assert tracker.dirty == set()

    def test_untracked_network_unaffected(self):
        # The hook default is None; plain networks pay nothing.
        network = _fresh()
        network.send(Address(0, 1), Address(1, 2))  # must not raise


class TestRoundTrip:
    def test_genesis_restore_is_identical(self, store):
        network = _fresh()
        init_store(store, network)
        assert durable_digest(restore_network(store)) == durable_digest(network)

    def test_restore_after_traffic(self, store):
        network = _fresh()
        init_store(store, network)
        tracker = attach_tracker(network)
        for i in range(40):
            network.send(Address(i % 3, i % 5), Address((i + 1) % 3, (i + 2) % 5))
        commit_network(store, network, tracker, barrier=1)
        network.advance_day_to(1)  # resets senders idle since barrier 1
        commit_network(store, network, tracker, barrier=2)
        restored = restore_network(store)
        assert restored._last_day_seen == 1
        assert durable_digest(restored) == durable_digest(network)

    def test_only_dirty_users_persisted(self, store):
        network = _fresh()
        init_store(store, network)
        tracker = attach_tracker(network)
        network.send(Address(0, 1), Address(1, 2))
        commit_network(store, network, tracker, barrier=1)
        assert store.count("user") == 2  # sender + recipient only

    def test_incremental_commits_accumulate(self, store):
        network = _fresh()
        init_store(store, network)
        tracker = attach_tracker(network)
        network.send(Address(0, 1), Address(1, 2))
        commit_network(store, network, tracker, barrier=1)
        network.send(Address(2, 3), Address(0, 4))
        commit_network(store, network, tracker, barrier=2)
        assert store.count("user") == 4
        assert store.barrier == 2
        assert durable_digest(restore_network(store)) == durable_digest(network)

    def test_clean_tracker_commit_writes_aggregates_only(self, store):
        network = _fresh()
        init_store(store, network)
        tracker = attach_tracker(network)
        written = commit_network(store, network, tracker, barrier=1)
        # 3 ISP aggregates + bank + net counters, no users
        assert written == 5

    def test_non_compliant_users_skipped(self, store):
        network = ZmailNetwork(
            n_isps=3, users_per_isp=5, seed=4,
            compliant=[True, False, True],
        )
        init_store(store, network)
        tracker = attach_tracker(network)
        network.send(Address(0, 1), Address(1, 2))  # recipient non-compliant
        commit_network(store, network, tracker, barrier=1)
        assert store.count("user") == 1
        assert durable_digest(restore_network(store)) == durable_digest(network)

    def test_config_survives(self, store):
        config = ZmailConfig(default_daily_limit=17, initial_pool=777)
        network = ZmailNetwork(
            n_isps=2, users_per_isp=3, seed=9, config=config
        )
        init_store(store, network)
        restored = restore_network(store)
        assert restored.config.default_daily_limit == 17
        assert restored.config.initial_pool == 777

    def test_extra_records_ride_the_same_barrier(self, store):
        network = _fresh()
        init_store(store, network)
        tracker = attach_tracker(network)
        commit_network(
            store, network, tracker, barrier=1,
            extra=[("svc", "gateway0", {"queue": []})],
        )
        assert store.get("svc", "gateway0") == {"queue": []}


class TestRestoreRefusals:
    def test_format_version_mismatch(self, store):
        init_store(store, _fresh())
        store.commit([], barrier=1, meta={"journal_format_version": "1"})
        with pytest.raises(SimulationError, match="format"):
            restore_network(store)

    def test_missing_bank_record(self, store):
        init_store(store, _fresh())
        store.commit([], barrier=1, deletes=[("bank", "bank")])
        with pytest.raises(SimulationError, match="no bank ledger"):
            restore_network(store)

    def test_missing_net_counters(self, store):
        init_store(store, _fresh())
        store.commit([], barrier=1, deletes=[("net", "net")])
        with pytest.raises(SimulationError, match="no network counters"):
            restore_network(store)

    def test_malformed_net_counters(self, store):
        init_store(store, _fresh())
        store.commit([("net", "net", {"wrong": 1})], barrier=1)
        with pytest.raises(SimulationError, match="network counters"):
            restore_network(store)

    def test_aggregate_for_noncompliant_isp(self, store):
        network = ZmailNetwork(
            n_isps=2, users_per_isp=3, seed=2, compliant=[True, False]
        )
        init_store(store, network)
        aggregate = store.get("isp", "0")
        store.commit([("isp", "1", aggregate)], barrier=1)
        with pytest.raises(SimulationError, match="non-compliant"):
            restore_network(store)

    def test_aggregate_record_bad_key(self, store):
        init_store(store, _fresh())
        store.commit([("isp", "x", store.get("isp", "0"))], barrier=1)
        with pytest.raises(SimulationError, match="non-compliant isp 'x'"):
            restore_network(store)

    def test_user_record_bad_key(self, store):
        init_store(store, _fresh())
        store.commit([("user", "mangled", {"user_id": 0})], barrier=1)
        with pytest.raises(SimulationError, match="user record key"):
            restore_network(store)

    def test_user_record_noncompliant_isp(self, store):
        network = ZmailNetwork(
            n_isps=2, users_per_isp=3, seed=2, compliant=[True, False]
        )
        init_store(store, network)
        store.commit(
            [("user", "1:0", {"user_id": 0, "balance": 1, "sent_today": 0,
                              "lifetime_sent": 0, "lifetime_received": 0,
                              "daily_limit": 5, "frozen": False})],
            barrier=1,
        )
        with pytest.raises(SimulationError, match="non-compliant"):
            restore_network(store)

    def test_corrupt_meta_raises(self, store):
        init_store(store, _fresh())
        store.commit([], barrier=1, meta={"n_isps": "three"})
        with pytest.raises(SimulationError, match="corrupted store metadata"):
            restore_network(store)


class TestDurableDigest:
    def test_sensitive_to_balance_change(self):
        a, b = _fresh(), _fresh()
        assert durable_digest(a) == durable_digest(b)
        b.fund_user(Address(0, 0), epennies=1)
        assert durable_digest(a) != durable_digest(b)

    def test_ignores_in_flight(self):
        # Unlike accounting_digest, in-flight paid letters are volatile
        # state a restart legitimately zeroes.
        network = _fresh()
        before = durable_digest(network)
        network.isps[0].paid_letters_in_flight = 99
        assert durable_digest(network) == before


class TestRestartCost:
    """A restart replays O(dirty) state, not O(users) (DESIGN.md §13)."""

    N_ISPS = 4
    USERS = 50_000
    DIRTY = USERS // 100

    def test_dirty_restore_is_exact_bounded_and_ten_times_faster(self, tmp_path):
        network = ZmailNetwork(
            n_isps=self.N_ISPS, users_per_isp=self.USERS // self.N_ISPS, seed=7
        )
        dirty_path = str(tmp_path / "dirty.db")
        with DurableStore.create(dirty_path) as store:
            init_store(store, network)
            tracker = attach_tracker(network)
            for i in range(self.DIRTY):
                network.fund_user(
                    Address(i % self.N_ISPS, i // self.N_ISPS), epennies=1
                )
            commit_network(store, network, tracker, barrier=1)
        # The same network with every user committed: the O(users) reload.
        full_path = str(tmp_path / "full.db")
        with DurableStore.create(full_path) as store:
            init_store(store, network)
            tracker = DirtyTracker()
            tracker.dirty.update(
                (isp_id, user_id)
                for isp_id in range(network.n_isps)
                for user_id in range(network.users_per_isp)
            )
            commit_network(store, network, tracker, barrier=1)

        def restore(path):
            with DurableStore.open(path) as store:
                return restore_network(store)

        restored = restore(dirty_path)
        # Lazy genesis materialises exactly the dirty set, no clean user
        # (counted before the digest below walks every account).
        assert sum(
            isp.ledger.materialized_count()
            for isp in restored.compliant_isps().values()
        ) == self.DIRTY
        live = durable_digest(network)
        assert durable_digest(restored) == live
        assert durable_digest(restore(full_path)) == live

        def best_of_3(path):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                restore(path)
                times.append(time.perf_counter() - start)
            return min(times)

        speedup = best_of_3(full_path) / best_of_3(dirty_path)
        assert speedup >= 10.0, f"dirty restore only {speedup:.1f}x faster"
