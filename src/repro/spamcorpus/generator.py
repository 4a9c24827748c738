"""Synthetic spam/ham message generation.

Messages are bags of tokens drawn from a class-conditional mixture over
the :mod:`repro.spamcorpus.vocabulary` pools. Spam generation optionally
applies the misspelling evasion of §2.2 ("spammers may deliberately
misspell sensitive words"), which knocks indicative tokens out of a
filter's learned vocabulary — exactly the attack the paper argues makes
content filtering a losing game.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .vocabulary import Vocabulary, misspell

__all__ = ["LabeledMessage", "CorpusGenerator"]


@dataclass(frozen=True)
class LabeledMessage:
    """One generated message with its ground-truth label."""

    tokens: tuple[str, ...]
    is_spam: bool
    evasive: bool = False

    @property
    def text(self) -> str:
        """The message body as whitespace-joined tokens."""
        return " ".join(self.tokens)


@dataclass
class CorpusGenerator:
    """Seeded generator of labelled spam/ham messages.

    Attributes:
        vocabulary: Token pools (controls class separation).
        ham_signal: Probability a ham token is drawn from the ham pool
            (remainder from the common pool).
        spam_signal: Same for spam.
        mean_length: Mean message length in tokens (geometric).
        seed: RNG seed; every generator with the same seed produces the
            same corpus.
    """

    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    ham_signal: float = 0.35
    spam_signal: float = 0.45
    mean_length: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ham_signal <= 1.0:
            raise ValueError("ham_signal outside [0, 1]")
        if not 0.0 <= self.spam_signal <= 1.0:
            raise ValueError("spam_signal outside [0, 1]")
        if self.mean_length < 1:
            raise ValueError("mean_length must be >= 1")
        self._rng = random.Random(self.seed)

    # -- single messages ---------------------------------------------------------

    def _length(self) -> int:
        # Geometric with the configured mean, floored at 5 tokens.
        p = 1.0 / self.mean_length
        length = 1
        while self._rng.random() > p and length < 10 * self.mean_length:
            length += 1
        return max(5, length)

    def ham(self) -> LabeledMessage:
        """Generate one legitimate message."""
        tokens = []
        for _ in range(self._length()):
            pool = (
                self.vocabulary.ham
                if self._rng.random() < self.ham_signal
                else self.vocabulary.common
            )
            tokens.append(self._rng.choice(pool))
        return LabeledMessage(tuple(tokens), is_spam=False)

    def spam(self, *, evasion_rate: float = 0.0) -> LabeledMessage:
        """Generate one spam message.

        Args:
            evasion_rate: Probability each spam-indicative token is
                obfuscated by :func:`~repro.spamcorpus.vocabulary.misspell`.
        """
        if not 0.0 <= evasion_rate <= 1.0:
            raise ValueError("evasion_rate outside [0, 1]")
        tokens = []
        evaded = False
        for _ in range(self._length()):
            if self._rng.random() < self.spam_signal:
                word = self._rng.choice(self.vocabulary.spam)
                if evasion_rate and self._rng.random() < evasion_rate:
                    word = misspell(word, self._rng)
                    evaded = True
            else:
                word = self._rng.choice(self.vocabulary.common)
            tokens.append(word)
        return LabeledMessage(tuple(tokens), is_spam=True, evasive=evaded)

    # -- corpora --------------------------------------------------------------------

    def corpus(
        self,
        *,
        n_ham: int,
        n_spam: int,
        evasion_rate: float = 0.0,
        shuffle: bool = True,
    ) -> list[LabeledMessage]:
        """Generate a labelled corpus, optionally shuffled."""
        messages = [self.ham() for _ in range(n_ham)]
        messages += [self.spam(evasion_rate=evasion_rate) for _ in range(n_spam)]
        if shuffle:
            self._rng.shuffle(messages)
        return messages
