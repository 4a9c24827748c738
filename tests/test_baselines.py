"""Tests for the §2 baseline systems."""

import random

import pytest

from repro.baselines.base import confusion_metrics
from repro.baselines.bayes_filter import NaiveBayesFilter, evaluate_filter
from repro.baselines.blacklist import Blacklist, RotatingSpammer
from repro.baselines.challenge_response import (
    ChallengeOutcome,
    ChallengeResponseSystem,
)
from repro.baselines.comparison import ComparisonScenario, run_comparison
from repro.baselines.hashcash import expected_attempts, mint, verify
from repro.baselines.shred import ShredConfig, ShredSystem
from repro.baselines.whitelist import Whitelist, WhitelistDecision
from repro.spamcorpus import CorpusGenerator, make_dataset


class TestConfusionMetrics:
    def test_counts(self):
        metrics = confusion_metrics(
            predictions=[True, True, False, False],
            labels=[True, False, True, False],
        )
        assert metrics.true_positives == 1
        assert metrics.false_positives == 1
        assert metrics.false_negatives == 1
        assert metrics.true_negatives == 1
        assert metrics.accuracy == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_metrics([True], [True, False])

    def test_empty_is_zero(self):
        metrics = confusion_metrics([], [])
        assert metrics.spam_recall == 0.0
        assert metrics.false_positive_rate == 0.0


class TestNaiveBayes:
    def make_trained(self, seed=1, n=400):
        gen = CorpusGenerator(seed=seed)
        filt = NaiveBayesFilter()
        filt.train(gen.corpus(n_ham=n, n_spam=n))
        return filt, gen

    def test_classifies_clear_cases(self):
        filt, gen = self.make_trained()
        assert filt.classify(gen.spam().tokens)
        assert not filt.classify(gen.ham().tokens)

    def test_high_accuracy_without_evasion(self):
        filt, _ = self.make_trained()
        dataset = make_dataset(seed=3)
        metrics = evaluate_filter(filt, dataset.test)
        assert metrics.spam_recall > 0.9
        assert metrics.false_positive_rate < 0.05

    def test_evasion_degrades_recall(self):
        """The §2.2 failure mode the paper emphasises."""
        dataset = make_dataset(seed=4, evasion_rate=0.0, test_evasion_rate=0.9)
        filt = NaiveBayesFilter()
        filt.train(dataset.train)
        evaded = evaluate_filter(filt, dataset.test)
        clean = evaluate_filter(
            filt, make_dataset(seed=4).test
        )
        assert evaded.spam_recall < clean.spam_recall

    def test_probability_in_unit_interval(self):
        filt, gen = self.make_trained()
        for _ in range(20):
            p = filt.spam_probability(gen.spam().tokens)
            assert 0.0 <= p <= 1.0

    def test_untrained_rejected(self):
        with pytest.raises(ValueError, match="trained"):
            NaiveBayesFilter().spam_probability(["hello"])

    def test_incremental_training(self):
        gen = CorpusGenerator(seed=5)
        filt = NaiveBayesFilter()
        filt.train(gen.corpus(n_ham=50, n_spam=50))
        vocab_before = filt.vocabulary_size
        filt.train(gen.corpus(n_ham=50, n_spam=50))
        assert filt.vocabulary_size >= vocab_before

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            NaiveBayesFilter(threshold=0.0)


class TestBlacklist:
    def test_listing_after_threshold(self):
        blacklist = Blacklist(report_threshold=3)
        for _ in range(3):
            blacklist.report_spam("spammer.example")
        assert blacklist.is_listed("spammer.example")
        assert not blacklist.check("spammer.example")

    def test_below_threshold_passes(self):
        blacklist = Blacklist(report_threshold=3)
        blacklist.report_spam("s")
        assert blacklist.check("s")

    def test_rotation_stays_ahead(self):
        """The §2.2 evasion: rotating sources beats a reactive list."""
        blacklist = Blacklist(report_threshold=10)
        spammer = RotatingSpammer(source_pool=100)
        delivered = 0
        for _ in range(900):
            source = spammer.send_source(blacklist)
            assert source is not None
            if blacklist.check(source):
                delivered += 1
                blacklist.report_spam(source)
        assert delivered == 900  # every message got through

    def test_pool_exhaustion(self):
        blacklist = Blacklist(report_threshold=1)
        spammer = RotatingSpammer(source_pool=2)
        for _ in range(2):
            source = spammer.send_source(blacklist)
            blacklist.report_spam(source)
        assert spammer.send_source(blacklist) is None


class TestWhitelist:
    def test_accept_and_fallthrough(self):
        whitelist = Whitelist()
        whitelist.add("friend@x.example")
        assert whitelist.check("friend@x.example") is WhitelistDecision.ACCEPT
        assert whitelist.check("other@y.example") is WhitelistDecision.FALLTHROUGH

    def test_case_insensitive(self):
        whitelist = Whitelist()
        whitelist.add("Friend@X.example")
        assert "friend@x.example" in whitelist

    def test_forgery_counts(self):
        """The §2.2 weakness: forged sender passes the list."""
        whitelist = Whitelist(forgeable=True)
        whitelist.add("friend@x.example")
        target = whitelist.forge_target()
        assert target == "friend@x.example"
        whitelist.check(target, actually_spam=True)
        assert whitelist.forged_accepts == 1

    def test_unforgeable_has_no_target(self):
        whitelist = Whitelist(forgeable=False)
        whitelist.add("a@x")
        assert whitelist.forge_target() is None

    def test_remove(self):
        whitelist = Whitelist()
        whitelist.add("a@x")
        whitelist.remove("a@x")
        assert len(whitelist) == 0


class TestHashcash:
    def test_mint_verify_round_trip(self):
        stamp = mint("bob@example.com", bits=8)
        assert verify(stamp, resource="bob@example.com", bits=8)

    def test_verify_rejects_wrong_resource(self):
        stamp = mint("bob@example.com", bits=8)
        assert not verify(stamp, resource="eve@example.com", bits=8)

    def test_verify_rejects_insufficient_bits(self):
        stamp = mint("r", bits=4)
        assert not verify(stamp, resource="r", bits=16)

    def test_verify_string_form(self):
        stamp = mint("r", bits=8)
        assert verify(stamp.encode(), resource="r", bits=8)

    def test_verify_rejects_garbage(self):
        assert not verify("not:a:stamp", resource="r", bits=8)
        assert not verify("1:zz:r:5", resource="r", bits=8)

    def test_work_scales_with_bits(self):
        """Average minting attempts grow geometrically with difficulty."""
        cheap = sum(
            mint(f"r{i}", bits=4).attempts for i in range(20)
        )
        costly = sum(
            mint(f"r{i}", bits=10).attempts for i in range(20)
        )
        assert costly > 5 * cheap

    def test_expected_attempts(self):
        assert expected_attempts(20) == 2**20

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            mint("r", bits=41)


class TestChallengeResponse:
    def test_verified_sender_skips_challenge(self):
        system = ChallengeResponseSystem(human_answer_probability=1.0)
        rng = random.Random(0)
        first = system.submit("alice", "bob", now=0.0, is_spam=False, rng=rng)
        second = system.submit("alice", "bob", now=1.0, is_spam=False, rng=rng)
        assert first is ChallengeOutcome.DELIVERED
        assert second is ChallengeOutcome.AUTO_ACCEPTED
        assert system.challenges_sent == 1

    def test_legitimate_mail_lost_when_unanswered(self):
        system = ChallengeResponseSystem(human_answer_probability=0.0)
        rng = random.Random(0)
        outcome = system.submit("alice", "bob", now=0.0, is_spam=False, rng=rng)
        assert outcome is ChallengeOutcome.ABANDONED
        assert (system.abandoned, system.delivered) == (1, 0)

    def test_spam_bots_blocked(self):
        system = ChallengeResponseSystem(bot_solver_rate=0.0)
        rng = random.Random(0)
        for i in range(50):
            outcome = system.submit(
                f"bot{i}", "bob", now=0.0, is_spam=True, rng=rng
            )
            assert outcome is ChallengeOutcome.ABANDONED
        assert system.spam_delivered == 0

    def test_captcha_farms_leak_spam(self):
        system = ChallengeResponseSystem(bot_solver_rate=1.0)
        rng = random.Random(0)
        system.submit("bot", "bob", now=0.0, is_spam=True, rng=rng)
        assert system.spam_delivered == 1

    def test_delay_accounted(self):
        system = ChallengeResponseSystem(
            human_answer_probability=1.0, answer_delay_seconds=120.0
        )
        rng = random.Random(0)
        system.submit("a", "b", now=0.0, is_spam=False, rng=rng)
        assert system.mean_delivery_delay == 120.0


class TestShred:
    def test_honest_spammer_pays(self):
        system = ShredSystem(ShredConfig(trigger_probability=1.0))
        outcome = system.run_campaign(
            spam_messages=100, colluding=False, rng=random.Random(0)
        )
        assert outcome.effective_spammer_cost_cents == 100.0

    def test_collusion_refunds_everything(self):
        """Weakness 3: a colluding ISP makes SHRED free for the spammer."""
        system = ShredSystem(ShredConfig(trigger_probability=1.0))
        outcome = system.run_campaign(
            spam_messages=100, colluding=True, rng=random.Random(0)
        )
        assert outcome.effective_spammer_cost_cents == 0.0
        assert not ShredSystem.collusion_detectable()

    def test_unmotivated_receivers_rarely_trigger(self):
        """Weakness 2: receivers gain nothing, so most never bother."""
        system = ShredSystem(ShredConfig(trigger_probability=0.3))
        outcome = system.run_campaign(
            spam_messages=1000, colluding=False, rng=random.Random(1)
        )
        assert outcome.triggers < 400

    def test_receiver_effort_per_spam(self):
        """Weakness 1: each trigger is an extra human action."""
        system = ShredSystem(ShredConfig(trigger_probability=1.0))
        outcome = system.run_campaign(
            spam_messages=50, colluding=False, rng=random.Random(2)
        )
        assert outcome.receiver_actions == 50

    def test_processing_cost_exceeds_collections(self):
        """Weakness 4 with default prices (2c to clear a 1c payment)."""
        system = ShredSystem(ShredConfig(trigger_probability=1.0))
        outcome = system.run_campaign(
            spam_messages=100, colluding=False, rng=random.Random(3)
        )
        assert outcome.processing_exceeds_collections


class TestComparisonHarness:
    def test_all_approaches_present(self):
        results = run_comparison(ComparisonScenario(n_train=400, n_test=400))
        names = [r.approach for r in results]
        assert "status-quo" in names
        assert "zmail" in names
        assert "shred/vanquish" in names
        assert any(n.startswith("bayes") for n in names)
        assert any(n.startswith("hashcash") for n in names)

    def test_zmail_needs_no_spam_definition(self):
        results = run_comparison(ComparisonScenario(n_train=400, n_test=400))
        by_name = {r.approach: r for r in results}
        assert not by_name["zmail"].needs_spam_definition
        assert by_name["bayes-filter"].needs_spam_definition

    def test_evasion_hurts_bayes_only(self):
        results = run_comparison(ComparisonScenario(n_train=600, n_test=600))
        by_name = {r.approach: r for r in results}
        assert (
            by_name["bayes-filter+evasion"].spam_blocked_fraction
            <= by_name["bayes-filter"].spam_blocked_fraction
        )
        assert by_name["zmail"].resists_evasion


class TestRocPoints:
    def test_monotone_tradeoff(self):
        """Raising the threshold never increases FP rate and never
        increases recall."""
        from repro.baselines.bayes_filter import roc_points

        dataset = make_dataset(
            n_train=800, n_test=600, extra_overlap=0.6, seed=8
        )
        filt = NaiveBayesFilter()
        filt.train(dataset.train)
        points = roc_points(filt, dataset.test)
        recalls = [m.spam_recall for _, m in points]
        fps = [m.false_positive_rate for _, m in points]
        assert recalls == sorted(recalls, reverse=True)
        assert fps == sorted(fps, reverse=True)

    def test_thresholds_echoed(self):
        from repro.baselines.bayes_filter import roc_points

        dataset = make_dataset(n_train=200, n_test=100, seed=9)
        filt = NaiveBayesFilter()
        filt.train(dataset.train)
        points = roc_points(filt, dataset.test, thresholds=(0.3, 0.8))
        assert [t for t, _ in points] == [0.3, 0.8]
