"""Tests for e-penny units, user accounts and the ISP ledger."""

import pytest

from repro.core.config import ZmailConfig
from repro.core.epenny import (
    EPENNY_PRICE_DOLLARS,
    Money,
    dollars_to_epennies,
    epennies_to_dollars,
)
from repro.core.isp import CompliantISP
from repro.core.ledger import Ledger
from repro.core.transfer import RECEIPT_BLOCKED_LIMIT, SendStatus
from repro.core.user import UserAccount
from repro.errors import (
    InsufficientBalance,
    InsufficientFunds,
    UnknownUser,
)
from repro.sim.workload import Address, TrafficKind


class TestEPenny:
    def test_price_is_one_cent(self):
        assert EPENNY_PRICE_DOLLARS == 0.01

    def test_conversions(self):
        assert epennies_to_dollars(250) == pytest.approx(2.50)
        assert dollars_to_epennies(2.50) == 250

    def test_money_arithmetic(self):
        assert (Money(3) + Money(4)).amount == 7
        assert (Money(10) - Money(4)).amount == 6

    def test_money_currency_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Money(1, "epenny") + Money(1, "penny")

    def test_money_unknown_currency(self):
        with pytest.raises(ValueError, match="unknown currency"):
            Money(1, "bitcoin")

    def test_money_str(self):
        assert str(Money(5)) == "5e¢"
        assert str(Money(5, "penny")) == "5¢"

    def test_money_type_error(self):
        with pytest.raises(TypeError):
            Money(1) + 1


class TestUserAccount:
    def make(self, **kwargs):
        defaults = dict(user_id=0, account=100, balance=50, daily_limit=10)
        defaults.update(kwargs)
        return UserAccount(**defaults)

    def test_epenny_debit_credit(self):
        user = self.make()
        user.debit_epennies(20)
        user.credit_epennies(5)
        assert user.balance == 35

    def test_overdraft_rejected(self):
        user = self.make(balance=3)
        with pytest.raises(InsufficientBalance):
            user.debit_epennies(4)
        assert user.balance == 3  # unchanged on failure

    def test_penny_overdraft_rejected(self):
        user = self.make(account=3)
        with pytest.raises(InsufficientFunds):
            user.debit_pennies(4)

    def test_negative_amounts_rejected(self):
        user = self.make()
        for op in (user.debit_epennies, user.credit_epennies,
                   user.debit_pennies, user.credit_pennies):
            with pytest.raises(ValueError):
                op(-1)

    # The daily limit is a user's counters applied by one guard, in
    # CompliantISP.submit; these drive it through that send path, for
    # local and paid remote mail alike.
    @staticmethod
    def make_isp(daily_limit):
        isp = CompliantISP(0, 4, ZmailConfig(default_daily_limit=daily_limit))
        isp.update_compliance({0: True, 1: True})
        return isp

    def test_daily_limit_blocks(self):
        for dst_isp, sent in ((0, SendStatus.DELIVERED_LOCAL),
                              (1, SendStatus.SENT_PAID)):
            isp = self.make_isp(daily_limit=2)
            for _ in range(2):
                receipt = isp.submit(0, Address(dst_isp, 1), TrafficKind.NORMAL)
                assert receipt.status is sent
            receipt = isp.submit(0, Address(dst_isp, 1), TrafficKind.NORMAL)
            assert receipt is RECEIPT_BLOCKED_LIMIT
            user = isp.ledger.user(0)
            assert (user.sent_today, user.balance) == (2, 98)
            assert user.limit_warnings == 1
            assert isp.stats.blocked_limit == 1
            assert isp.limit_hits == {0: 1}

    def test_reset_daily_restores_quota(self):
        isp = self.make_isp(daily_limit=1)
        assert isp.submit(0, Address(1, 0), TrafficKind.NORMAL).status is (
            SendStatus.SENT_PAID
        )
        assert isp.submit(0, Address(1, 0), TrafficKind.NORMAL) is (
            RECEIPT_BLOCKED_LIMIT
        )
        assert isp.midnight() == [0]
        receipt = isp.submit(0, Address(0, 1), TrafficKind.NORMAL)
        assert receipt.status is SendStatus.DELIVERED_LOCAL
        assert isp.ledger.user(0).limit_warnings == 1

    def test_net_flow(self):
        user = self.make()
        for _ in range(3):
            user.note_sent()
        for _ in range(5):
            user.note_received()
        assert user.net_epenny_flow == 2
        assert user.lifetime_sent == 3
        assert user.lifetime_received == 5

    def test_junk_folder_accounting(self):
        user = self.make()
        user.note_received(junk=True)
        user.note_received()
        assert user.junk_folder == 1
        assert user.inbox == 1


class TestLedger:
    def make(self, pool=1000, users=3):
        ledger = Ledger(initial_pool=pool)
        ledger.genesis_users(users, account=100, balance=50, daily_limit=10)
        return ledger

    def test_add_and_lookup(self):
        ledger = self.make()
        assert ledger.user(1).user_id == 1
        assert len(ledger) == 3
        assert 2 in ledger and 9 not in ledger

    def test_duplicate_user_rejected(self):
        ledger = self.make()
        with pytest.raises(ValueError, match="empty ledger"):
            ledger.genesis_users(1, account=0, balance=0, daily_limit=1)

    def test_unknown_user(self):
        with pytest.raises(UnknownUser):
            self.make().user(99)

    def test_user_buys_epennies(self):
        ledger = self.make()
        ledger.user_buys_epennies(0, 30)
        user = ledger.user(0)
        assert user.account == 70
        assert user.balance == 80
        assert ledger.pool == 970

    def test_buy_limited_by_pool(self):
        ledger = self.make(pool=10)
        with pytest.raises(InsufficientBalance, match="pool"):
            ledger.user_buys_epennies(0, 20)

    def test_buy_limited_by_account(self):
        ledger = self.make()
        with pytest.raises(InsufficientFunds):
            ledger.user_buys_epennies(0, 500)

    def test_nonpositive_amounts_rejected(self):
        ledger = self.make()
        with pytest.raises(ValueError):
            ledger.user_buys_epennies(0, 0)
        with pytest.raises(ValueError):
            ledger.user_buys_epennies(0, -5)

    def test_exchange_conserves_ledger_value(self):
        ledger = self.make()
        before = ledger.totals().total_value
        ledger.user_buys_epennies(0, 30)
        ledger.user_buys_epennies(2, 5)
        assert ledger.totals().total_value == before

    def test_external_transfers(self):
        ledger = self.make()
        ledger.external_debit(0)
        ledger.external_credit(1)
        assert ledger.user(0).balance == 49
        assert ledger.user(1).balance == 51

    def test_pool_operations(self):
        ledger = self.make(pool=100)
        ledger.pool_credit(50)
        ledger.pool_debit(120)
        assert ledger.pool == 30
        with pytest.raises(InsufficientBalance):
            ledger.pool_debit(31)

    def test_totals_breakdown(self):
        ledger = self.make(pool=1000, users=3)
        totals = ledger.totals()
        assert totals.user_accounts == 300
        assert totals.user_balances == 150
        assert totals.pool == 1000
        assert totals.total_value == 1450

    def test_reset_daily_counters(self):
        ledger = self.make()
        ledger.user(0).note_sent()
        ledger.user(1).note_sent()
        ledger.reset_daily_counters()
        assert all(u.sent_today == 0 for u in ledger.users())

    def test_users_sorted(self):
        ledger = self.make()
        for i in (2, 0):
            ledger.user(i)  # materialise out of order
        assert [u.user_id for u in ledger.users()] == [0, 1, 2]
