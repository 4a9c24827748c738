"""Randomized model-checking of the paper's §4 formal specification.

These tests run the transliterated spec under the randomized weakly-fair
scheduler with invariants checked after every step — value conservation,
non-negativity, and credit anti-symmetry at quiescent points — and verify
that the bank's §4.4 verification flags exactly the injected cheaters.
"""

import pytest

from repro.apn import (
    CheatMode,
    InvariantViolation,
    ZmailSpecConfig,
    build_zmail_protocol,
    total_value,
)

KEY_BITS = 128  # small keys keep the model checker fast


def run_protocol(config, steps=3000):
    protocol = build_zmail_protocol(config)
    executed = protocol.run(steps)
    return protocol, executed


class TestHonestExecution:
    def test_invariants_hold_over_long_run(self):
        config = ZmailSpecConfig(n=3, m=3, seed=7, key_bits=KEY_BITS)
        protocol, executed = run_protocol(config, 3000)
        assert executed == 3000  # never deadlocks

    def test_value_conservation_exact(self):
        config = ZmailSpecConfig(n=3, m=2, seed=11, key_bits=KEY_BITS)
        protocol = build_zmail_protocol(config)
        initial = total_value(protocol.state, config)
        protocol.run(2000)
        assert total_value(protocol.state, config) == initial

    def test_reconciliation_rounds_complete(self):
        config = ZmailSpecConfig(n=3, m=3, seed=7, key_bits=KEY_BITS)
        protocol, _ = run_protocol(config, 3000)
        assert protocol.completed_rounds() >= 1

    def test_honest_isps_never_flagged(self):
        config = ZmailSpecConfig(n=4, m=2, seed=13, key_bits=KEY_BITS)
        protocol, _ = run_protocol(config, 4000)
        assert protocol.completed_rounds() >= 1
        assert protocol.flagged_pairs() == []

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_many_seeds_no_violation(self, seed):
        config = ZmailSpecConfig(n=3, m=2, seed=seed, key_bits=KEY_BITS)
        run_protocol(config, 1500)

    def test_emails_actually_flow(self):
        config = ZmailSpecConfig(n=3, m=3, seed=7, key_bits=KEY_BITS)
        protocol, _ = run_protocol(config, 2000)
        delivered = sum(
            isp["delivered"] for isp in protocol.isps
        )
        assert delivered > 100

    def test_bank_exchanges_occur(self):
        """Buy/sell actions fire across a long enough run."""
        config = ZmailSpecConfig(
            n=2, m=3, seed=3, key_bits=KEY_BITS,
            initial_avail=60, minavail=50, maxavail=80,
        )
        protocol, _ = run_protocol(config, 4000)
        actions = [
            action
            for proc in protocol.scheduler.state.processes.values()
            for action in proc.actions
        ]
        buys = sum(a.fired for a in actions if a.name == "buy")
        sells = sum(a.fired for a in actions if a.name == "sell")
        assert buys + sells > 0


class TestNonCompliantInterop:
    def test_mixed_network_runs_clean(self):
        config = ZmailSpecConfig(
            n=4, m=2, seed=21, key_bits=KEY_BITS,
            compliant=(True, True, False, True),
        )
        protocol, executed = run_protocol(config, 3000)
        assert executed == 3000
        assert protocol.flagged_pairs() == []

    def test_noncompliant_mail_delivered_without_payment(self):
        config = ZmailSpecConfig(
            n=2, m=2, seed=5, key_bits=KEY_BITS, compliant=(True, False),
        )
        protocol = build_zmail_protocol(config)
        initial = total_value(protocol.state, config)
        protocol.run(1500)
        compliant_isp = protocol.isps[0]
        assert compliant_isp["delivered"] > 0
        assert total_value(protocol.state, config) == initial


class TestCheaterDetection:
    def test_inflating_cheater_flagged(self):
        config = ZmailSpecConfig(
            n=3, m=3, seed=11, key_bits=KEY_BITS,
            cheaters={1: CheatMode.INFLATE_SENT},
        )
        protocol, _ = run_protocol(config, 6000)
        assert protocol.completed_rounds() >= 1
        flagged = {isp for pair in protocol.flagged_pairs() for isp in pair}
        assert 1 in flagged

    def test_skip_debit_cheater_flagged(self):
        config = ZmailSpecConfig(
            n=3, m=3, seed=17, key_bits=KEY_BITS,
            cheaters={2: CheatMode.SKIP_RECEIVE_DEBIT},
        )
        protocol, _ = run_protocol(config, 6000)
        flagged = {isp for pair in protocol.flagged_pairs() for isp in pair}
        assert protocol.completed_rounds() >= 1
        assert 2 in flagged

    def test_cheater_implicated_in_multiple_pairs(self):
        """A cheater shows up against several honest peers — the basis of
        the suspect-ranking inference."""
        config = ZmailSpecConfig(
            n=4, m=3, seed=23, key_bits=KEY_BITS,
            cheaters={0: CheatMode.INFLATE_SENT},
        )
        protocol, _ = run_protocol(config, 8000)
        pair_peers = {
            tuple(sorted(pair)) for pair in protocol.flagged_pairs()
        }
        implicating = [pair for pair in pair_peers if 0 in pair]
        assert len(implicating) >= 2


class TestSpecConfig:
    def test_compliance_defaults_all_true(self):
        assert ZmailSpecConfig(n=3).compliance() == (True, True, True)

    def test_compliance_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            ZmailSpecConfig(n=3, compliant=(True,)).compliance()


class TestLimitInSpec:
    def test_sent_never_exceeds_limit(self):
        """The §4.1 guard in the formal spec: sent[u] <= limit[u] always."""
        config = ZmailSpecConfig(n=2, m=3, seed=31, key_bits=KEY_BITS, limit=5)
        protocol = build_zmail_protocol(config)

        def limit_invariant(state):
            for i in range(2):
                isp = state.process(f"isp[{i}]")
                if any(s > 5 for s in isp["sent"]):
                    return False
            return True

        protocol.scheduler.add_invariant("limit", limit_invariant)
        protocol.run(2000)  # raises on violation
