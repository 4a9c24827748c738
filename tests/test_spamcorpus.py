"""Tests for the synthetic corpus generator."""

import random

import pytest

from repro.spamcorpus.datasets import make_dataset
from repro.spamcorpus.generator import CorpusGenerator
from repro.spamcorpus.vocabulary import SPAM_WORDS, Vocabulary, misspell


class TestVocabulary:
    def test_pools_nonempty_and_disjointish(self):
        vocab = Vocabulary()
        assert vocab.ham and vocab.spam and vocab.common
        assert not set(vocab.ham) & set(vocab.spam)

    def test_extra_overlap_grows_common_pool(self):
        plain = Vocabulary()
        overlapped = Vocabulary(extra_overlap=0.5, seed=1)
        assert len(overlapped.common) > len(plain.common)

    def test_overlap_bounds(self):
        with pytest.raises(ValueError):
            Vocabulary(extra_overlap=1.5)


class TestMisspell:
    def test_never_identity(self):
        rng = random.Random(0)
        for word in SPAM_WORDS:
            assert misspell(word, rng) != word

    def test_deterministic_with_seed(self):
        assert misspell("viagra", random.Random(3)) == misspell(
            "viagra", random.Random(3)
        )

    def test_short_word(self):
        assert misspell("x", random.Random(0)) == "x."


class TestGenerator:
    def test_labels(self):
        gen = CorpusGenerator(seed=1)
        assert gen.spam().is_spam
        assert not gen.ham().is_spam

    def test_min_length(self):
        gen = CorpusGenerator(seed=1, mean_length=5)
        for _ in range(50):
            assert len(gen.spam().tokens) >= 5

    def test_spam_contains_spam_words(self):
        gen = CorpusGenerator(seed=2)
        spam_vocab = set(gen.vocabulary.spam)
        hits = sum(
            1 for _ in range(20) if set(gen.spam().tokens) & spam_vocab
        )
        assert hits >= 18

    def test_ham_avoids_spam_words(self):
        gen = CorpusGenerator(seed=2)
        spam_vocab = set(gen.vocabulary.spam)
        for _ in range(20):
            assert not set(gen.ham().tokens) & spam_vocab

    def test_evasion_marks_message(self):
        gen = CorpusGenerator(seed=3)
        evaded = [gen.spam(evasion_rate=1.0) for _ in range(10)]
        assert all(m.evasive for m in evaded)
        clean = [gen.spam(evasion_rate=0.0) for _ in range(10)]
        assert not any(m.evasive for m in clean)

    def test_evasion_removes_known_tokens(self):
        gen = CorpusGenerator(seed=4)
        spam_vocab = set(gen.vocabulary.spam)
        evaded = gen.spam(evasion_rate=1.0)
        assert not set(evaded.tokens) & spam_vocab

    def test_corpus_counts(self):
        gen = CorpusGenerator(seed=5)
        corpus = gen.corpus(n_ham=30, n_spam=20)
        assert len(corpus) == 50
        assert sum(m.is_spam for m in corpus) == 20

    def test_reproducible(self):
        a = CorpusGenerator(seed=6).corpus(n_ham=10, n_spam=10)
        b = CorpusGenerator(seed=6).corpus(n_ham=10, n_spam=10)
        assert [m.tokens for m in a] == [m.tokens for m in b]


class TestDatasets:
    def test_split_sizes_and_shares(self):
        dataset = make_dataset(n_train=100, n_test=50, spam_fraction=0.6, seed=1)
        assert len(dataset.train) == 100
        assert len(dataset.test) == 50
        spam_share = sum(m.is_spam for m in dataset.train) / len(dataset.train)
        assert spam_share == pytest.approx(0.6, abs=0.01)

    def test_train_test_independent(self):
        dataset = make_dataset(n_train=50, n_test=50, seed=2)
        train_tokens = {m.tokens for m in dataset.train}
        test_tokens = {m.tokens for m in dataset.test}
        assert train_tokens != test_tokens

    def test_test_only_evasion(self):
        dataset = make_dataset(
            n_train=40, n_test=40, evasion_rate=0.0, test_evasion_rate=1.0,
            seed=3,
        )
        assert not any(m.evasive for m in dataset.train)
        assert any(m.evasive for m in dataset.test if m.is_spam)
