"""Tests for the durable SMTP service and the operator selftest."""

import asyncio
import dataclasses
import gc
import tracemalloc

import pytest

from repro.core import SendStatus, ZmailConfig, ZmailNetwork
from repro.core.overload import OverloadConfig
from repro.errors import SimulationError
from repro.sim.clock import DAY
from repro.sim.workload import Address
from repro.smtp.client import SMTPClient
from repro.smtp.message import MailMessage
from repro.smtp.transport import Envelope
from repro.store import (
    DurableStore,
    attach_tracker,
    commit_network,
    durable_digest,
    init_store,
)
from repro.store.codec import encode_payload
from repro.store.service import ZmailService, run_selftest

OVERLOAD = OverloadConfig(
    admit_rate=1.0,
    admit_burst=2,
    queue_capacity=16,
    retry_base=5.0,
    retry_backoff=2.0,
    retry_max_interval=60.0,
    max_retries=8,
)


def _make_store(tmp_path, name="svc.db", *, n_isps=2, users=4, seed=5):
    path = str(tmp_path / name)
    store = DurableStore.create(path)
    init_store(store, ZmailNetwork(n_isps=n_isps, users_per_isp=users, seed=seed))
    return path, store


def _message(i=0):
    return MailMessage.compose(
        sender="user0@isp0.example",
        recipient="user1@isp1.example",
        subject=f"m{i}",
        body="hello",
    )


async def _send_n(service, n):
    host, port = service.addresses[0]
    client = SMTPClient(host, port)
    await client.connect()
    try:
        for i in range(n):
            await client.send(
                Envelope("user0@isp0.example", "user1@isp1.example", _message(i))
            )
    finally:
        await client.quit()


class TestServiceBasics:
    def test_smtp_delivery_accounts_and_files(self, tmp_path):
        _, store = _make_store(tmp_path)

        async def run():
            service = ZmailService(store)
            await service.start()
            await _send_n(service, 3)
            await service.stop()
            return service

        service = asyncio.run(run())
        store.close()
        assert service.messages_handled == 3
        recipient = service.network.isps[1].ledger.user(1)
        assert recipient.inbox == recipient.lifetime_received_paid == 3
        assert service.stats()["conserved"]

    def test_commit_persists_ledger(self, tmp_path):
        path, store = _make_store(tmp_path)

        async def run():
            service = ZmailService(store)
            await service.start()
            await _send_n(service, 4)
            await service.stop()  # final commit
            return durable_digest(service.network)

        live = asyncio.run(run())
        store.close()
        with DurableStore.open(path) as reopened:
            from repro.store import restore_network

            assert durable_digest(restore_network(reopened)) == live

    def test_unstamped_foreign_sender_unroutable(self, tmp_path):
        _, store = _make_store(tmp_path)

        async def run():
            service = ZmailService(store)
            await service.start()
            host, port = service.addresses[0]
            client = SMTPClient(host, port)
            await client.connect()
            message = MailMessage.compose(
                sender="user1@isp1.example",  # not a local isp0 user
                recipient="user0@isp0.example",
                body="x",
            )
            await client.send(
                Envelope("user1@isp1.example", "user0@isp0.example", message)
            )
            await client.quit()
            await service.stop()
            return service

        service = asyncio.run(run())
        store.close()
        assert service.unroutable == 1

    def test_unparseable_sender_unroutable(self, tmp_path):
        _, store = _make_store(tmp_path)

        async def run():
            service = ZmailService(store)
            await service.start()
            host, port = service.addresses[0]
            client = SMTPClient(host, port)
            await client.connect()
            message = MailMessage.compose(
                sender="someone@outside.example",
                recipient="user0@isp0.example",
                body="x",
            )
            await client.send(
                Envelope("someone@outside.example", "user0@isp0.example", message)
            )
            await client.quit()
            await service.stop()
            return service

        service = asyncio.run(run())
        store.close()
        assert service.unroutable == 1

    @pytest.mark.parametrize("sender, recipient", [
        ("user0@isp0.example", "user1@isp9.example"),  # no such ISP
        ("user0@isp0.example", "user4@isp1.example"),  # user >= users_per_isp
        ("user4@isp0.example", "user1@isp1.example"),
    ])
    def test_submission_outside_the_network_unroutable(
        self, tmp_path, sender, recipient
    ):
        _, store = _make_store(tmp_path)

        async def run():
            service = ZmailService(store)
            await service.start()
            host, port = service.addresses[0]
            client = SMTPClient(host, port)
            await client.connect()
            message = MailMessage.compose(
                sender=sender, recipient=recipient, body="x"
            )
            await client.send(Envelope(sender, recipient, message))
            await client.quit()
            await service.stop()
            return service

        service = asyncio.run(run())
        store.close()
        assert service.unroutable == 1
        assert service.stats()["conserved"]

    def test_tick_rejects_negative(self, tmp_path):
        _, store = _make_store(tmp_path)
        service = ZmailService(store)
        store.close()
        with pytest.raises(SimulationError, match="backwards"):
            service.tick(-1.0)

    def test_commit_interval_loop_commits(self, tmp_path):
        _, store = _make_store(tmp_path)

        async def run():
            service = ZmailService(store, commit_interval=0.05)
            await service.start()
            await _send_n(service, 2)
            await asyncio.sleep(0.2)
            periodic = store.barrier  # before the final commit
            await service.stop()
            return periodic, service.network

        periodic, network = asyncio.run(run())
        assert periodic >= 1
        with DurableStore.open(store.path) as reopened:
            from repro.store import restore_network

            assert durable_digest(restore_network(reopened)) == durable_digest(
                network
            )
        store.close()


class TestServiceMidnight:
    """The service clock drives the §4.1 daily reset, across restarts."""

    LIMIT = 5

    def _store(self, tmp_path, *, days_seen=0):
        path = str(tmp_path / "midnight.db")
        store = DurableStore.create(path)
        network = ZmailNetwork(
            n_isps=2, users_per_isp=4, seed=5,
            config=ZmailConfig(default_daily_limit=self.LIMIT),
        )
        network.note_time(days_seen * DAY)
        init_store(store, network)
        return store

    @staticmethod
    def _send(service):
        return service.gateways[0].submit_outbound(
            1, Address(1, 2), _message()
        )

    def test_limit_resets_after_midnight_and_across_restart(self, tmp_path):
        store = self._store(tmp_path)
        first = ZmailService(store)
        assert [self._send(first) for _ in range(self.LIMIT)] == [
            SendStatus.SENT_PAID
        ] * self.LIMIT
        assert self._send(first) is SendStatus.BLOCKED_LIMIT
        first.tick(DAY + 60.0)
        assert first.network._last_day_seen == 1
        assert self._send(first) is SendStatus.SENT_PAID
        first.commit()

        # A restart replays no midnight: the day's one send still counts.
        second = ZmailService(store)
        assert second.now == DAY + 60.0
        assert second.network._last_day_seen == 1
        statuses = [self._send(second) for _ in range(self.LIMIT)]
        assert statuses == [SendStatus.SENT_PAID] * (self.LIMIT - 1) + [
            SendStatus.BLOCKED_LIMIT
        ]
        # ... and skips none: the next midnight is applied exactly once.
        second.tick(DAY)
        assert second.network._last_day_seen == 2
        assert self._send(second) is SendStatus.SENT_PAID
        assert second.stats()["conserved"]
        store.close()

    def test_store_without_clock_resumes_at_last_midnight(self, tmp_path):
        store = self._store(tmp_path, days_seen=3)
        service = ZmailService(store)
        assert service.now == 3 * DAY
        service.tick(DAY)
        assert service.network._last_day_seen == 4
        store.close()



class TestIdleBarriers:
    """The commit loop writes a barrier only when a row changed."""

    @pytest.mark.parametrize("overload", [None, OVERLOAD])
    def test_idle_ticks_add_no_commit(self, tmp_path, overload):
        _, store = _make_store(tmp_path)
        service = ZmailService(store, overload=overload)
        service.gateways[0].submit_outbound(1, Address(1, 2), _message())
        service.commit()
        barrier, records_before = store.barrier, store.count()
        assert not any(service._tick_barrier(0.02) for _ in range(100))
        assert (store.barrier, service.barrier) == (barrier, barrier)
        assert store.count() == records_before
        # A change is committed by the next tick, clock included.
        service.gateways[0].submit_outbound(1, Address(1, 2), _message())
        assert service._tick_barrier(0.02)
        assert store.barrier == barrier + 1
        assert store.get("svc", "clock") == {"now": service.now}
        store.close()

    def test_fresh_store_idles_without_committing(self, tmp_path):
        _, store = _make_store(tmp_path)
        service = ZmailService(store)
        assert not any(service._tick_barrier(1.0) for _ in range(100))
        assert store.barrier == 0 and store.get("svc", "clock") is None
        store.close()

    def test_restart_after_idle_stretch_neither_replays_nor_skips_a_day(
        self, tmp_path
    ):
        limit = TestServiceMidnight.LIMIT
        store = TestServiceMidnight()._store(tmp_path)
        send = TestServiceMidnight._send
        first = ZmailService(store)
        assert [send(first) for _ in range(limit)] == [SendStatus.SENT_PAID] * limit
        assert first._tick_barrier(60.0)
        # Idle hours: only the tick that crosses midnight commits.
        committed = [first._tick_barrier(3600.0) for _ in range(30)]
        assert committed.index(True) == 23 and committed.count(True) == 1
        assert first.network._last_day_seen == 1
        assert send(first) is SendStatus.SENT_PAID
        assert first._tick_barrier(60.0)
        clock = first.now
        assert not any(first._tick_barrier(3600.0) for _ in range(10))

        second = ZmailService(store)
        assert second.now == clock
        assert second.network._last_day_seen == 1
        # No midnight replayed: the day's one send still counts ...
        assert [send(second) for _ in range(limit)] == [
            SendStatus.SENT_PAID
        ] * (limit - 1) + [SendStatus.BLOCKED_LIMIT]
        # ... and none skipped: the next one is applied exactly once.
        second.tick(DAY)
        assert second.network._last_day_seen == 2
        assert send(second) is SendStatus.SENT_PAID
        assert second.stats()["conserved"]
        store.close()


class TestServiceMemory:
    """Serving mail keeps no per-message state: live memory is O(users)."""

    USERS = 4
    MESSAGES = 2000
    SESSION = 100  # the server closes a session after 200 commands

    @staticmethod
    def _envelope(i, users):
        # A ring over both ISPs: every user sends as much as it
        # receives, so no balance or daily limit refuses a message.
        src, user = i % 2, (i // 2) % users
        sender = f"user{user}@isp{src}.example"
        recipient = f"user{user}@isp{1 - src}.example"
        return Envelope(sender, recipient, MailMessage.compose(
            sender=sender, recipient=recipient, subject=f"m{i}", body="hello",
        ))

    def test_live_memory_does_not_grow_per_message(self, tmp_path):
        store = DurableStore.create(str(tmp_path / "mem.db"))
        init_store(store, ZmailNetwork(
            n_isps=2, users_per_isp=self.USERS, seed=5,
            config=ZmailConfig(default_daily_limit=10**6),
        ))
        warm = 2 * self.USERS

        async def serve():
            service = ZmailService(store)
            await service.start()
            clients = {}

            async def send(i):
                isp = i % 2
                if i // 2 % self.SESSION == 0:
                    if isp in clients:
                        await clients[isp].quit()
                    clients[isp] = SMTPClient(*service.addresses[isp])
                    await clients[isp].connect()
                await clients[isp].send(self._envelope(i, self.USERS))

            for i in range(warm):
                await send(i)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for i in range(warm, warm + self.MESSAGES):
                    await send(i)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            for client in clients.values():
                await client.quit()
            await service.stop()
            return service, grown

        service, grown = asyncio.run(serve())
        store.close()
        network = service.network
        assert all(
            isp.ledger.materialized_count() == self.USERS
            for isp in network.compliant_isps().values()
        )
        counters = network.metrics.snapshot()["counters"]
        assert counters["gateway.delivered_inbound"] == warm + self.MESSAGES
        assert grown / self.MESSAGES < 256, f"{grown / self.MESSAGES:.0f} B/message"


class TestOverloadRecord:
    def test_overload_record_matches_asdict_and_does_not_alias(self, tmp_path):
        _, store = _make_store(tmp_path)
        service = ZmailService(store, overload=OVERLOAD)
        puts = {key: value for _kind, key, value in service._pending_puts()}
        record = puts["overload"]
        assert record == dataclasses.asdict(OVERLOAD)
        assert encode_payload(record) == encode_payload(
            dataclasses.asdict(OVERLOAD)
        )
        record["admit_rate"] = 99.0
        assert service.overload.admit_rate == 1.0
        again = {key: value for _kind, key, value in service._pending_puts()}
        assert again["overload"] is not record
        assert OverloadConfig(**again["overload"]) == OVERLOAD
        store.close()


class TestPendingRehydration:
    """Satellite: deferred retries survive a service restart."""

    def _run_phase1(self, store, n=6):
        async def run():
            service = ZmailService(store, overload=OVERLOAD)
            await service.start()
            await _send_n(service, n)
            await service.stop()
            return service

        return asyncio.run(run())

    def test_pending_queue_survives_restart(self, tmp_path):
        _, store = _make_store(tmp_path)
        first = self._run_phase1(store)
        pending = first.stats()["pending_sends"]
        assert pending > 0, "test needs a saturated admission queue"

        second = ZmailService(store, overload=OVERLOAD)
        assert second.stats()["pending_sends"] == pending
        # Pump virtual time; every deferred message must drain through.
        for _ in range(8):
            second.tick(120.0)
        assert second.stats()["pending_sends"] == 0
        # The restored ledger already counts what the first run delivered.
        assert second.network.isps[1].ledger.user(1).inbox == 6
        assert second.stats()["conserved"]
        store.close()

    def test_clock_resumes_past_persisted_timestamps(self, tmp_path):
        _, store = _make_store(tmp_path)
        self._run_phase1(store)
        second = ZmailService(store, overload=OVERLOAD)
        # Time must never run backwards relative to persisted bucket /
        # due timestamps, or refill arithmetic would go negative.
        assert second.now > 0.0
        store.close()

    @pytest.mark.parametrize("largest", ["clock", "bucket", "due"])
    def test_clock_resumes_past_every_persisted_timestamp(
        self, tmp_path, largest
    ):
        _, store = _make_store(tmp_path)
        self._run_phase1(store)
        clock = store.get("svc", "clock")
        pending = store.get("svc", "gateway0")
        assert pending["queue"]["items"], "test needs deferred items"
        future = clock["now"] + 1000.0
        if largest == "clock":
            clock["now"] = future
        elif largest == "bucket":
            pending["bucket"]["last"] = future
        else:
            pending["queue"]["items"][-1]["due"] = future
        store.commit(
            [("svc", "clock", clock), ("svc", "gateway0", pending)],
            barrier=store.barrier,
        )
        assert ZmailService(store, overload=OVERLOAD).now == future
        store.close()

    def test_restart_without_overload_refuses(self, tmp_path):
        _, store = _make_store(tmp_path)
        self._run_phase1(store)
        with pytest.raises(SimulationError, match="overload admission is disabled"):
            ZmailService(store)
        store.close()

    def test_no_duplicate_delivery_across_restarts(self, tmp_path):
        _, store = _make_store(tmp_path)
        first = self._run_phase1(store)
        # Restart twice without draining in between; the queue is
        # authoritative on disk, so no message may double-deliver.
        middle = ZmailService(store, overload=OVERLOAD)
        middle.commit()
        second = ZmailService(store, overload=OVERLOAD)
        for _ in range(8):
            second.tick(120.0)
        assert first.network.isps[1].ledger.user(1).inbox < 6
        assert second.network.isps[1].ledger.user(1).inbox == 6
        store.close()


class TestSelftest:
    def test_fresh_store_passes(self, tmp_path):
        path, store = _make_store(tmp_path, n_isps=3)
        store.close()
        report = run_selftest(path)
        assert report["passed"]
        assert report["anti_symmetric"]
        assert report["conserved"]
        assert report["roundtrip"]
        assert report["isps"] == [0, 1, 2]

    def test_single_isp_store_passes(self, tmp_path):
        path, store = _make_store(tmp_path, n_isps=1, name="one.db")
        store.close()
        report = run_selftest(path)
        assert report["passed"]

    def test_lived_in_store_with_overload_passes(self, tmp_path):
        path, store = _make_store(tmp_path)

        async def run():
            service = ZmailService(store, overload=OVERLOAD)
            await service.start()
            await _send_n(service, 6)
            await service.stop()

        asyncio.run(run())
        service = ZmailService(store, overload=OVERLOAD)
        for _ in range(8):
            service.tick(120.0)
        service.commit()
        store.close()
        report = run_selftest(path)
        assert report["passed"], report

    def test_store_with_every_user_at_its_limit_passes(self, tmp_path):
        # The probe would be refused on the store's own day; selftest
        # sends it on the next, without writing that day to the store.
        network = ZmailNetwork(n_isps=2, users_per_isp=2, seed=5,
                               config=ZmailConfig(default_daily_limit=2))
        path = str(tmp_path / "spent.db")
        store = DurableStore.create(path)
        init_store(store, network)
        tracker = attach_tracker(network)
        for isp in range(2):
            for user in range(2):
                for _ in range(2):
                    network.send(Address(isp, user), Address(1 - isp, user))
        assert all(
            u.sent_today == u.daily_limit
            for isp in network.compliant_isps().values()
            for u in isp.ledger.users()
        )
        commit_network(store, network, tracker, barrier=1)
        store.close()
        report = run_selftest(path)
        assert report["roundtrip"] and report["passed"], report
        with DurableStore.open(path) as s:
            assert s.barrier == 1
            assert s.get("svc", "clock") is None

    def test_corrupted_store_fails_loudly(self, tmp_path):
        path, store = _make_store(tmp_path)
        store._conn.execute("UPDATE records SET payload='{}' WHERE kind='bank'")
        store.close()
        with pytest.raises(SimulationError):
            run_selftest(path)

    @pytest.mark.parametrize("mutation", ["unknown-key", "missing-key"])
    def test_bad_overload_record_fails_loudly(self, tmp_path, mutation):
        path, store = _make_store(tmp_path)
        ZmailService(store, overload=OVERLOAD).commit()
        record = store.get("svc", "overload")
        if mutation == "unknown-key":
            record["surge_rate"] = 3.0
            field = "surge_rate"
        else:
            del record["max_retries"]
            field = "max_retries"
        store.commit([("svc", "overload", record)], barrier=store.barrier)
        store.close()
        with pytest.raises(
            SimulationError,
            match=f"malformed svc record 'overload': field '{field}'",
        ):
            run_selftest(path)

    def test_selftest_does_not_write(self, tmp_path):
        path, store = _make_store(tmp_path)
        store.close()
        with DurableStore.open(path) as s:
            before = (s.barrier, s.count())
        run_selftest(path)
        with DurableStore.open(path) as s:
            assert (s.barrier, s.count()) == before
