"""Overload layer tests: admission control, shedding, breakers, floods.

Covers the building blocks in :mod:`repro.core.overload`, their wiring
into :class:`ZmailNetwork` (direct and engine drive modes), the priority
shedding policy (paid compliant mail sheds last), the SMTP gateway's
backpressure face, and byte-level determinism of the built-in overload
documents.
"""

import pytest

from conftest import load_plan
from repro.chaos import run_cell
from repro.chaos.deployment import ChaosDeployment
from repro.chaos.faults import FaultSpec, FloodSpec, flood_requests
from repro.core.overload import (
    AdmissionController,
    CircuitBreaker,
    DeferredItem,
    DeferredQueue,
    OverloadConfig,
    ShedAudit,
    ShedClass,
    TokenBucket,
    shed_class_for,
)
from repro.core.protocol import ZmailNetwork
from repro.core.transfer import SendStatus
from repro.errors import ConfigError, SimulationError
from repro.sim.rng import SeededStreams, derive_seed
from repro.sim.workload import Address, TrafficKind


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, capacity=3)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)
        # 1 second at 2/s refills 2 tokens.
        assert bucket.try_acquire(1.0)
        assert bucket.try_acquire(1.0)
        assert not bucket.try_acquire(1.0)

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(rate=100.0, capacity=5)
        assert bucket.available(1000.0) == 5.0

    def test_failed_acquire_leaves_tokens(self):
        bucket = TokenBucket(rate=1.0, capacity=2)
        bucket.try_acquire(0.0, 2)
        assert not bucket.try_acquire(0.5)  # only 0.5 tokens refilled
        assert bucket.available(0.5) == pytest.approx(0.5)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, capacity=10)
        bucket.try_acquire(5.0)
        before = bucket.available(5.0)
        assert bucket.available(1.0) == before  # stale now is a no-op


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            OverloadConfig(admit_rate=0.0)
        with pytest.raises(ConfigError):
            OverloadConfig(retry_backoff=0.5)
        with pytest.raises(ConfigError):
            OverloadConfig(retry_max_interval=1.0, retry_base=2.0)
        with pytest.raises(ConfigError):
            OverloadConfig(breaker_failure_threshold=0)

    def test_retry_delay_backs_off_and_caps(self):
        config = OverloadConfig(
            retry_base=2.0, retry_backoff=2.0, retry_max_interval=10.0
        )
        assert [config.retry_delay(i) for i in range(4)] == [
            2.0, 4.0, 8.0, 10.0,
        ]

    def test_shed_class_policy(self):
        assert shed_class_for(TrafficKind.SPAM, paid=True) is ShedClass.BULK
        assert shed_class_for(TrafficKind.ZOMBIE, paid=False) is ShedClass.BULK
        assert shed_class_for(TrafficKind.NORMAL, paid=True) is ShedClass.PAID
        assert (
            shed_class_for(TrafficKind.NORMAL, paid=False) is ShedClass.UNPAID
        )
        assert (
            shed_class_for(TrafficKind.MAILING_LIST, paid=True)
            is ShedClass.PAID
        )


class TestDeferredQueue:
    def _item(self, due, shed_class=ShedClass.UNPAID):
        return DeferredItem(payload=None, shed_class=shed_class, due=due, seq=0)

    def test_pop_due_in_time_order(self):
        queue = DeferredQueue(capacity=8)
        for due in (5.0, 1.0, 3.0):
            queue.push(self._item(due))
        assert [i.due for i in queue.pop_due(4.0)] == [1.0, 3.0]
        assert len(queue) == 1

    def test_evict_lowest_prefers_lowest_class_oldest_first(self):
        queue = DeferredQueue(capacity=8)
        queue.push(self._item(1.0, ShedClass.UNPAID))
        queue.push(self._item(2.0, ShedClass.BULK))  # oldest BULK
        queue.push(self._item(3.0, ShedClass.BULK))
        victim = queue.evict_lowest(ShedClass.PAID)
        assert victim is not None
        assert victim.shed_class is ShedClass.BULK and victim.due == 2.0
        assert len(queue) == 2

    def test_evict_lowest_never_evicts_equal_or_higher(self):
        queue = DeferredQueue(capacity=2)
        queue.push(self._item(1.0, ShedClass.PAID))
        assert queue.evict_lowest(ShedClass.PAID) is None
        assert queue.evict_lowest(ShedClass.BULK) is None

    def test_tombstones_skipped_by_pop_and_next_due(self):
        queue = DeferredQueue(capacity=4)
        queue.push(self._item(1.0, ShedClass.BULK))
        queue.push(self._item(2.0, ShedClass.PAID))
        queue.evict_lowest(ShedClass.PAID)
        assert queue.next_due() == 2.0
        assert [i.due for i in queue.pop_due(10.0)] == [2.0]

    def test_peak_size_high_water(self):
        queue = DeferredQueue(capacity=8)
        for due in (1.0, 2.0, 3.0):
            queue.push(self._item(due))
        list(queue.pop_due(10.0))
        queue.push(self._item(4.0))
        assert queue.peak_size == 3


class TestShedAudit:
    def test_ring_bounded_totals_exact(self):
        audit = ShedAudit(cap=3)
        for i in range(10):
            audit.record(float(i), "shed", ShedClass.BULK, f"r{i}")
        audit.record(10.0, "bounce", ShedClass.PAID, "last")
        assert len(audit.records) == 3
        assert audit.records[-1].action == "bounce"
        assert audit.total == 11
        assert audit.totals_by_action == {"shed": 10, "bounce": 1}


class TestAdmissionController:
    def _controller(self, **overrides):
        defaults = dict(
            admit_rate=1.0, admit_burst=2, queue_capacity=2,
            retry_base=1.0, retry_backoff=2.0, retry_max_interval=8.0,
            max_retries=2,
        )
        defaults.update(overrides)
        return AdmissionController("test", OverloadConfig(**defaults))

    def test_accept_defer_shed_progression(self):
        ctl = self._controller()
        verdicts = []
        for _ in range(5):
            verdict = ctl.admit(0.0, ShedClass.UNPAID)
            verdicts.append(verdict)
            if verdict == "defer":
                ctl.defer(0.0, "m", ShedClass.UNPAID)
        assert verdicts == ["accept", "accept", "defer", "defer", "shed"]
        assert ctl.pending == 2
        assert ctl.accounting_delta() == 0

    def test_higher_class_evicts_lower(self):
        ctl = self._controller()
        ctl.admit(0.0, ShedClass.BULK)
        ctl.admit(0.0, ShedClass.BULK)
        for _ in range(2):
            assert ctl.admit(0.0, ShedClass.BULK) == "defer"
            ctl.defer(0.0, "bulk", ShedClass.BULK)
        assert ctl.admit(0.0, ShedClass.PAID) == "defer"  # evicted a BULK
        ctl.defer(0.0, "paid", ShedClass.PAID)
        assert ctl.evicted == 1
        assert ctl.bounced == 1  # the victim is a terminal bounce
        assert ctl.audit.totals_by_action["evict"] == 1
        assert ctl.accounting_delta() == 0

    def test_pump_retries_then_bounces(self):
        ctl = self._controller(admit_rate=0.001, admit_burst=1)
        ctl.admit(0.0, ShedClass.UNPAID)  # drains the only token
        assert ctl.admit(0.0, ShedClass.UNPAID) == "defer"
        ctl.defer(0.0, "m", ShedClass.UNPAID)
        outcomes = []
        t = 0.0
        while ctl.pending and t < 100.0:
            t += 1.0
            outcomes.extend(kind for kind, _ in ctl.pump(t))
        assert outcomes == ["bounce"]
        assert ctl.bounced == 1
        assert ctl.accounting_delta() == 0

    def test_pump_accepts_when_tokens_return(self):
        ctl = self._controller(admit_rate=1.0, admit_burst=1)
        ctl.admit(0.0, ShedClass.PAID)
        ctl.admit(0.0, ShedClass.PAID)
        ctl.defer(0.0, "m", ShedClass.PAID)
        results = list(ctl.pump(5.0))
        assert [kind for kind, _ in results] == ["accept"]
        assert results[0][1].payload == "m"
        assert ctl.accepted_after_defer == 1

    def test_on_bounce_hook_sees_eviction_victims(self):
        seen = []
        ctl = self._controller(queue_capacity=1)
        ctl.on_bounce = lambda now, item, reason: seen.append(item.payload)
        ctl.admit(0.0, ShedClass.BULK)
        ctl.admit(0.0, ShedClass.BULK)
        ctl.admit(0.0, ShedClass.BULK)
        ctl.defer(0.0, "victim", ShedClass.BULK)
        assert ctl.admit(0.0, ShedClass.PAID) == "defer"
        assert seen == ["victim"]


class TestCircuitBreaker:
    def test_opens_after_threshold_and_shorts(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(5.0)
        assert breaker.calls_shorted == 1
        assert breaker.times_opened == 1

    def test_half_open_trial_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)  # the half-open trial
        assert not breaker.allow(10.0)  # only one trial at a time
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_trial_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        breaker.record_failure(10.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(15.0)  # timeout restarted at 10.0
        assert breaker.allow(20.0)
        assert breaker.times_opened == 2


def overload_network(**overrides):
    defaults = dict(
        admit_rate=1.0, admit_burst=2, queue_capacity=3,
        retry_base=1.0, retry_backoff=2.0, retry_max_interval=8.0,
        max_retries=2,
    )
    defaults.update(overrides)
    return ZmailNetwork(
        n_isps=2, users_per_isp=4, overload=OverloadConfig(**defaults)
    )


class TestNetworkAdmission:
    def test_statuses_and_identity_direct_mode(self):
        net = overload_network()
        statuses = [
            net.send(Address(0, 0), Address(1, 0), TrafficKind.NORMAL).status
            for _ in range(7)
        ]
        assert statuses[:2] == [SendStatus.SENT_PAID, SendStatus.SENT_PAID]
        assert statuses[2:5] == [SendStatus.DEFERRED] * 3
        assert statuses[5:] == [SendStatus.SHED] * 2
        assert net.overload_pending() == 3
        assert net.drain_overload()
        stats = net.overload_stats()
        assert stats["overload_attempts"] == 7
        assert stats["overload_accepted"] == 5
        assert stats["overload_shed"] == 2
        assert stats["overload_pending"] == 0
        for controller in net.overload_controllers().values():
            assert controller.accounting_delta() == 0
        assert net.total_value() == net.expected_total_value()

    def test_shed_and_deferred_never_touch_ledger(self):
        net = overload_network(admit_rate=0.001, admit_burst=1)
        sender = net.compliant_isps()[0].ledger.user(0)
        balance_before = sender.balance
        net.send(Address(0, 0), Address(1, 0), TrafficKind.NORMAL)  # accept
        spent_one = sender.balance
        for _ in range(5):
            net.send(Address(0, 0), Address(1, 0), TrafficKind.NORMAL)
        assert sender.balance == spent_one == balance_before - 1
        assert net.total_value() == net.expected_total_value()

    def test_paid_mail_sheds_last(self):
        net = overload_network(admit_rate=0.001, admit_burst=1,
                               queue_capacity=2)
        net.send(Address(0, 0), Address(1, 0), TrafficKind.ZOMBIE)  # token
        # Fill the deferred queue with bulk traffic.
        z1 = net.send(Address(0, 1), Address(1, 0), TrafficKind.ZOMBIE).status
        z2 = net.send(Address(0, 2), Address(1, 0), TrafficKind.ZOMBIE).status
        assert (z1, z2) == (SendStatus.DEFERRED, SendStatus.DEFERRED)
        # More bulk sheds; a paid arrival evicts a queued bulk instead.
        assert (
            net.send(Address(0, 3), Address(1, 0), TrafficKind.ZOMBIE).status
            is SendStatus.SHED
        )
        paid = net.send(Address(0, 0), Address(1, 1), TrafficKind.NORMAL)
        assert paid.status is SendStatus.DEFERRED
        controller = net.overload_controllers()[0]
        assert controller.evicted == 1
        assert controller.shed == 1
        queued = [
            item.shed_class
            for _, _, item in controller.queue._heap
            if not item.cancelled
        ]
        assert ShedClass.PAID in queued

    def test_engine_mode_retries_via_timers(self):
        deployment = ChaosDeployment(
            seed=3,
            faults=FaultSpec(),
            n_isps=2,
            users_per_isp=4,
            reconcile_every=500.0,
            overload=OverloadConfig(
                admit_rate=1.0, admit_burst=2, queue_capacity=8,
                retry_base=1.0, retry_backoff=2.0, retry_max_interval=8.0,
                max_retries=4,
            ),
        )
        flood = FloodSpec(
            attacker_isp=0, target_isp=1, rate_per_sec=5.0,
            start=0.0, duration=10.0, kind="normal",
        )
        requests = flood_requests(
            flood, n_isps=2, users_per_isp=4, streams=SeededStreams(5)
        )
        assert deployment.run(requests, until=10.0, drain_window=200.0)
        stats = deployment.stats()
        assert stats["overload_retries"] > 0
        assert stats["overload_violations"] == 0
        assert stats["overload_pending"] == 0
        network = deployment.network
        assert network.total_value() == network.expected_total_value()


class TestFloodSpec:
    def test_validation(self):
        with pytest.raises(SimulationError):
            FloodSpec(rate_per_sec=0.0)
        with pytest.raises(SimulationError):
            FloodSpec(kind="nonsense")
        with pytest.raises(SimulationError):
            list(
                flood_requests(
                    FloodSpec(target_isp=9),
                    n_isps=3, users_per_isp=4, streams=SeededStreams(1),
                )
            )

    def test_deterministic_and_in_window(self):
        spec = FloodSpec(rate_per_sec=20.0, start=5.0, duration=10.0)

        def generate():
            return list(
                flood_requests(
                    spec, n_isps=3, users_per_isp=4,
                    streams=SeededStreams(derive_seed(9, "flood")),
                )
            )

        first, second = generate(), generate()
        assert first == second
        assert first, "a 20/s flood over 10s must produce requests"
        assert all(5.0 <= r.time < 15.0 for r in first)
        assert all(r.sender.isp == 0 and r.recipient.isp == 1 for r in first)


OVERLOAD_DOCUMENTS = ("overload-baseline.yaml", "overload-burst-2x.yaml",
                      "overload-flood-10x.yaml")


class TestOverloadCampaign:
    def test_builtin_campaign_passes_and_is_deterministic(self):
        first = [run_cell(load_plan(doc)) for doc in OVERLOAD_DOCUMENTS]
        second = [run_cell(load_plan(doc)) for doc in OVERLOAD_DOCUMENTS]
        assert first == second
        assert all(row["passed"] for row in first), [
            (row["cell"], row["first_violation"],
             row["first_overload_violation"])
            for row in first
        ]
        flood_row = next(row for row in first if row["cell"] == "flood-10x")
        assert flood_row["overload_shed"] > 0
        assert flood_row["overload_peak_pending"] <= 64
