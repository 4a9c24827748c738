"""Property-based tests (hypothesis) on the core invariants.

The invariants the paper's correctness rests on, exercised over arbitrary
operation sequences rather than hand-picked ones:

* e-penny conservation across arbitrary traffic;
* credit anti-symmetry on every quiescent reconciliation;
* the ledger's local conservation law under arbitrary exchanges;
* RSA round-trips for arbitrary payloads;
* nonce nonrepetition;
* FIFO channel ordering;
* daily-limit liability bound.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import midnight_chain
from repro.core import SendStatus, ZmailConfig, ZmailNetwork
from repro.core.ledger import Ledger
from repro.crypto import NonceSource, dcr, generate_keypair, ncr
from repro.errors import InsufficientBalance, InsufficientFunds
from repro.sim.workload import Address, TrafficKind

KEYS = generate_keypair(192, seed=1234)

# A small universe keeps runs fast while still covering inter/intra-ISP
# and compliant/non-compliant combinations.
N_ISPS, USERS = 3, 4

addresses = st.builds(
    Address,
    isp=st.integers(min_value=0, max_value=N_ISPS - 1),
    user=st.integers(min_value=0, max_value=USERS - 1),
)

send_ops = st.tuples(addresses, addresses)


def build_network(compliant=(True, True, False)):
    return ZmailNetwork(
        n_isps=N_ISPS,
        users_per_isp=USERS,
        compliant=list(compliant),
        config=ZmailConfig(default_user_balance=30, auto_topup_amount=5),
        seed=0,
    )


class TestConservationProperties:
    @given(ops=st.lists(send_ops, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_total_value_invariant_under_arbitrary_traffic(self, ops):
        net = build_network()
        for sender, recipient in ops:
            net.send(sender, recipient)
        assert net.total_value() == net.expected_total_value()

    @given(ops=st.lists(send_ops, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_reconciliation_always_consistent(self, ops):
        net = build_network()
        for sender, recipient in ops:
            net.send(sender, recipient)
        report = net.reconcile("direct")
        assert report.consistent

    @given(ops=st.lists(send_ops, max_size=120), rounds=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_multiple_reconciliation_rounds(self, ops, rounds):
        net = build_network()
        chunk = max(1, len(ops) // rounds)
        for i in range(0, len(ops), chunk):
            for sender, recipient in ops[i : i + chunk]:
                net.send(sender, recipient)
            assert net.reconcile("direct").consistent

    @given(ops=st.lists(send_ops, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_no_negative_balances_ever(self, ops):
        net = build_network()
        for sender, recipient in ops:
            net.send(sender, recipient)
        for isp in net.compliant_isps().values():
            assert isp.ledger.pool >= 0
            for user in isp.ledger.users():
                assert user.balance >= 0
                assert user.account >= 0

    @given(ops=st.lists(send_ops, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_zero_sum_per_message(self, ops):
        """Sum of all user net flows is zero when only compliant ISPs
        exchange mail (every debit has exactly one matching credit)."""
        net = build_network(compliant=(True, True, True))
        for sender, recipient in ops:
            net.send(sender, recipient)
        flows = [
            user.net_epenny_flow
            for isp in net.compliant_isps().values()
            for user in isp.ledger.users()
        ]
        assert sum(flows) == 0


class TestLedgerProperties:
    exchange_ops = st.lists(
        st.tuples(
            st.sampled_from(["buy", "debit"]),
            st.integers(min_value=0, max_value=USERS - 1),
            st.integers(min_value=1, max_value=60),
        ),
        max_size=80,
    )

    @given(ops=exchange_ops)
    @settings(max_examples=50, deadline=None)
    def test_exchange_conserves_total(self, ops):
        ledger = Ledger(initial_pool=200)
        ledger.genesis_users(USERS, account=100, balance=50, daily_limit=10)
        before = ledger.totals().total_value
        for op, user, amount in ops:
            try:
                if op == "buy":
                    ledger.user_buys_epennies(user, amount)
                else:
                    ledger.user(user).debit_epennies(amount)
                    before -= amount  # e-pennies left with an email
            except (InsufficientBalance, InsufficientFunds):
                pass  # refusals must leave state untouched
        assert ledger.totals().total_value == before

    @given(ops=exchange_ops)
    @settings(max_examples=50, deadline=None)
    def test_refused_exchange_leaves_purses_consistent(self, ops):
        ledger = Ledger(initial_pool=100)
        ledger.genesis_users(1, account=50, balance=20, daily_limit=10)
        for op, _, amount in ops:
            snapshot = (
                ledger.user(0).account,
                ledger.user(0).balance,
                ledger.pool,
                ledger.cash,
            )
            try:
                if op == "buy":
                    ledger.user_buys_epennies(0, amount)
                else:
                    ledger.user(0).debit_epennies(amount)
            except (InsufficientBalance, InsufficientFunds):
                assert (
                    ledger.user(0).account,
                    ledger.user(0).balance,
                    ledger.pool,
                    ledger.cash,
                ) == snapshot


class TestCryptoProperties:
    @given(payload=st.binary(max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_rsa_round_trip_arbitrary_bytes(self, payload):
        assert dcr(KEYS.private, ncr(KEYS.public, payload)) == payload

    @given(payload=st.binary(min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_rsa_signature_direction(self, payload):
        assert dcr(KEYS.public, ncr(KEYS.private, payload)) == payload

    @given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(1, 300))
    @settings(max_examples=25, deadline=None)
    def test_nonce_nonrepetition(self, seed, n):
        source = NonceSource(seed)
        nonces = [source.next() for _ in range(n)]
        assert len(set(nonces)) == n


class TestChannelProperties:
    @given(payloads=st.lists(st.integers(), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_fifo_any_sequence(self, payloads):
        from repro.apn.channel import Channel, Message

        chan = Channel("p", "q")
        for p in payloads:
            chan.send(Message("m", (p,)))
        out = [chan.receive().fields[0] for _ in range(len(payloads))]
        assert out == payloads


class TestLimitProperties:
    @given(
        limit=st.integers(min_value=0, max_value=30),
        attempts=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=50, deadline=None)
    def test_daily_liability_never_exceeds_limit(self, limit, attempts):
        """§5: a zombie burns at most `limit` e-pennies per day."""
        config = ZmailConfig(
            default_daily_limit=limit,
            default_user_balance=1000,
            auto_topup_amount=0,
        )
        net = ZmailNetwork(n_isps=2, users_per_isp=2, config=config, seed=0)
        zombie = Address(0, 0)
        before = net.isps[0].ledger.user(0).balance
        for i in range(attempts):
            net.send(zombie, Address(1, i % 2))
        spent = before - net.isps[0].ledger.user(0).balance
        assert spent <= limit
        assert spent == min(limit, attempts)


class TestDailyLimitRollover:
    """§4.1 day-boundary resets, alone and against the overload layer."""

    @given(
        day_times=st.lists(
            st.floats(min_value=0.0, max_value=2.99, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        limit=st.integers(min_value=1, max_value=8),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rollover_resets_and_keeps_invariants(self, day_times, limit):
        """Arbitrary send schedules across day boundaries: sent_today
        never exceeds the limit, resets at each midnight, deferred-queue
        retries drain without losing accounting, and value is conserved
        throughout."""
        from repro.core.overload import OverloadConfig
        from repro.sim.clock import DAY
        from repro.sim.engine import Engine

        engine = Engine()
        config = ZmailConfig(
            default_daily_limit=limit,
            default_user_balance=1000,
            auto_topup_amount=0,
        )
        net = ZmailNetwork(
            n_isps=2,
            users_per_isp=2,
            config=config,
            seed=0,
            engine=engine,
            overload=OverloadConfig(
                admit_rate=0.02,
                admit_burst=2,
                queue_capacity=4,
                retry_base=30.0,
                retry_backoff=2.0,
                retry_max_interval=3600.0,
                max_retries=3,
            ),
        )
        midnight_chain(net)
        sender = Address(0, 0)
        user = net.isps[0].ledger.user(0)
        times = sorted(day * DAY for day in day_times)
        for t in times:
            engine.run(until=t)
            net.send(sender, Address(1, 0))
            assert user.sent_today <= limit
        # Every retry budget (base 30 s, doubling) runs out within the hour.
        engine.run(until=times[-1] + 3600.0)
        assert net.overload_pending() == 0

        for controller in net.overload_controllers().values():
            assert controller.accounting_delta() == 0
        assert net.total_value() == net.expected_total_value()
        # limit_hits is bounded per user, never an unbounded event log.
        assert set(net.isps[0].limit_hits) <= {0, 1}
        # The next midnight resets every daily counter.
        engine.run(until=10 * DAY)
        for isp in net.compliant_isps().values():
            for account in isp.ledger.users():
                assert account.sent_today == 0

    def test_retry_crossing_midnight_counts_against_new_day(self):
        """A send deferred just before midnight whose retry fires after
        it consumes the *new* day's quota: the midnight timer resets the
        counter before the retry timer fires."""
        from repro.core.overload import OverloadConfig
        from repro.sim.clock import DAY, HOUR
        from repro.sim.engine import Engine

        engine = Engine()
        config = ZmailConfig(
            default_daily_limit=2, default_user_balance=100,
            auto_topup_amount=0,
        )
        net = ZmailNetwork(
            n_isps=2, users_per_isp=2, config=config, seed=0, engine=engine,
            overload=OverloadConfig(
                # 0.02/s: the burst of 2 is gone at `late`, and the first
                # retry 120s later (2.4 tokens refilled) succeeds.
                admit_rate=0.02, admit_burst=2, queue_capacity=2,
                retry_base=120.0, retry_backoff=1.0,
                retry_max_interval=120.0, max_retries=5,
            ),
        )
        sender = Address(0, 0)
        user = net.isps[0].ledger.user(0)
        late = DAY - 10.0
        midnight_chain(net)
        engine.run(until=late)
        statuses = [net.send(sender, Address(1, 0)).status for _ in range(3)]
        assert [s.value for s in statuses] == [
            "sent_paid", "sent_paid", "deferred",
        ]
        assert user.sent_today == 2  # day-0 quota fully used

        # The deferred retry is due at late+120s, after midnight, which
        # must reset the counter *first*, so the retry is charged to day
        # 1, not blocked by day 0's exhausted quota.
        engine.run(until=DAY + HOUR)
        assert net.overload_pending() == 0
        assert user.sent_today == 1
        stats = net.overload_stats()
        assert stats["overload_accepted"] == 3
        assert stats["overload_bounced"] == 0
        assert net.total_value() == net.expected_total_value()
