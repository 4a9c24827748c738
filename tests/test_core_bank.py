"""Tests for the central bank: accounts, buy/sell, replay, reconciliation."""

import pytest

from repro.core.bank import Bank
from repro.core.misbehavior import infer_suspects, verify_credit_matrix
from repro.errors import NotCompliant, ReplayDetected, UnknownISP


def make_bank(n=3, account=1000):
    bank = Bank()
    for i in range(n):
        bank.register_isp(i, initial_account=account)
    return bank


def flag_noncompliant(bank, isp_id):
    """Mark ``isp_id`` non-compliant the way a restored journal does."""
    state = bank.state_dict()
    state["compliant"][str(isp_id)] = False
    bank.load_state(state)


class TestRegistry:
    def test_register_and_balance(self):
        bank = make_bank()
        assert bank.account_balance(0) == 1000
        assert bank.is_compliant(0)

    def test_duplicate_registration_rejected(self):
        bank = make_bank()
        with pytest.raises(ValueError, match="registered"):
            bank.register_isp(0, initial_account=1)

    def test_unknown_isp(self):
        with pytest.raises(UnknownISP):
            make_bank().account_balance(9)

    def test_compliance_directory(self):
        bank = make_bank()
        flag_noncompliant(bank, 1)
        directory = bank.compliance_directory()
        assert directory == {0: True, 1: False, 2: True}

    def test_unregistered_not_compliant(self):
        assert not make_bank().is_compliant(42)

    def test_total_deposits(self):
        assert make_bank(3, 500).total_deposits() == 1500


class TestBuySell:
    def test_buy_accepted_debits_account(self):
        bank = make_bank()
        result = bank.buy_epennies(0, value=300, nonce=1)
        assert result.accepted
        assert bank.account_balance(0) == 700

    def test_buy_rejected_when_underfunded(self):
        bank = make_bank(account=100)
        result = bank.buy_epennies(0, value=300, nonce=1)
        assert not result.accepted
        assert bank.account_balance(0) == 100  # untouched

    def test_sell_credits_account(self):
        bank = make_bank()
        echoed = bank.sell_epennies(0, value=200, nonce=2)
        assert echoed == 2
        assert bank.account_balance(0) == 1200

    def test_replay_rejected(self):
        bank = make_bank()
        bank.buy_epennies(0, value=10, nonce=7)
        with pytest.raises(ReplayDetected):
            bank.buy_epennies(0, value=10, nonce=7)
        with pytest.raises(ReplayDetected):
            bank.sell_epennies(0, value=10, nonce=7)  # shared registry

    def test_nonce_registries_per_isp(self):
        bank = make_bank()
        bank.buy_epennies(0, value=10, nonce=7)
        bank.buy_epennies(1, value=10, nonce=7)  # same nonce, other ISP: fine

    def test_noncompliant_blocked(self):
        bank = make_bank()
        flag_noncompliant(bank, 0)
        with pytest.raises(NotCompliant):
            bank.buy_epennies(0, value=10, nonce=1)

    def test_nonpositive_values_rejected(self):
        bank = make_bank()
        with pytest.raises(ValueError):
            bank.buy_epennies(0, value=0, nonce=1)
        with pytest.raises(ValueError):
            bank.sell_epennies(0, value=-5, nonce=2)


class TestReconciliation:
    def test_consistent_round(self):
        bank = make_bank()
        reports = {
            0: {1: 5, 2: -3},
            1: {0: -5, 2: 2},
            2: {0: 3, 1: -2},
        }
        report = bank.reconcile(reports)
        assert report.consistent
        assert report.pairs_checked == 3
        assert report.suspects == []
        assert bank.reports == [report]

    def test_inconsistent_pair_flagged(self):
        bank = make_bank()
        reports = {
            0: {1: 5},
            1: {0: -4},  # off by one
            2: {},
        }
        report = bank.reconcile(reports)
        assert not report.consistent
        assert report.flagged_isps() == {0, 1}
        assert report.inconsistent[0].discrepancy == 1

    def test_seq_advances(self):
        bank = make_bank()
        assert bank.next_seq == 0
        bank.reconcile({0: {}, 1: {}, 2: {}})
        assert bank.next_seq == 1

    def test_settlement_cost_fields(self):
        bank = make_bank()
        report = bank.reconcile({0: {1: 1}, 1: {0: -1}, 2: {}})
        n = 3
        assert report.settlement_operations == 2 * n + n * (n - 1) // 2
        assert report.settlement_bytes > 0

    def test_missing_entries_default_zero(self):
        bad = verify_credit_matrix({0: {1: 4}, 1: {}})
        assert len(bad) == 1
        assert bad[0].credit_ab == 4 and bad[0].credit_ba == 0


class TestSuspectInference:
    def test_cheater_in_many_pairs_ranked_first(self):
        reports = {
            0: {1: 10, 2: 10, 3: 10},
            1: {0: -9},  # 0 inflated against everyone
            2: {0: -9},
            3: {0: -9},
        }
        bad = verify_credit_matrix(reports)
        suspects = infer_suspects(bad)
        assert suspects[0] == 0
        assert len(bad) == 3

    def test_single_pair_is_ambiguous(self):
        bad = verify_credit_matrix({0: {1: 3}, 1: {0: -2}})
        assert infer_suspects(bad) == [0, 1]

    def test_no_inconsistency_no_suspects(self):
        assert infer_suspects([]) == []


class TestKnownLimitations:
    def test_collusive_pair_can_hide_mutual_traffic(self):
        """A *pair* of ISPs misreporting consistently with each other
        (both claiming zero mutual traffic) passes anti-symmetry — a
        structural limitation of pairwise checking. Crucially it gains
        them nothing: hiding mutual traffic moves no money, and minting
        is caught by the solvency audit (see E18), so the collusion is
        pointless rather than profitable."""
        bank = make_bank()
        reports = {
            0: {2: 4},          # truth: 0 and 1 exchanged mail too,
            1: {2: -1},         # but both report nothing about it
            2: {0: -4, 1: 1},
        }
        report = bank.reconcile(reports)
        assert report.consistent  # the hidden pair sails through

    def test_one_sided_hiding_is_caught(self):
        """Hiding requires *both* parties: if only one suppresses the
        mutual traffic, the honest peer's report exposes it."""
        bank = make_bank()
        reports = {
            0: {},              # hides its traffic with 1
            1: {0: -7},         # honest
            2: {},
        }
        report = bank.reconcile(reports)
        assert not report.consistent
        assert report.flagged_isps() == {0, 1}
