"""Ready-made train/test splits for the filtering experiments."""

from __future__ import annotations

from dataclasses import dataclass

from .generator import CorpusGenerator, LabeledMessage
from .vocabulary import Vocabulary

__all__ = ["Dataset", "make_dataset"]


@dataclass(frozen=True)
class Dataset:
    """A train/test split with independent generation seeds."""

    train: list[LabeledMessage]
    test: list[LabeledMessage]


def make_dataset(
    *,
    n_train: int = 2000,
    n_test: int = 1000,
    spam_fraction: float = 0.6,
    evasion_rate: float = 0.0,
    test_evasion_rate: float | None = None,
    extra_overlap: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Build a dataset with the paper-era 60% default spam share.

    Args:
        evasion_rate: Misspelling evasion in the *training* spam.
        test_evasion_rate: Evasion in the test spam; defaults to the
            training rate. Setting it higher models spammers adapting
            after the filter is trained — the E10 evasion experiment.
        extra_overlap: Vocabulary overlap knob (harder classification).
        seed: Controls both splits (derived seeds keep them independent).
    """
    if not 0.0 <= spam_fraction <= 1.0:
        raise ValueError("spam_fraction outside [0, 1]")
    vocabulary = Vocabulary(extra_overlap=extra_overlap, seed=seed)
    train_gen = CorpusGenerator(vocabulary=vocabulary, seed=seed * 2 + 1)
    test_gen = CorpusGenerator(vocabulary=vocabulary, seed=seed * 2 + 2)
    if test_evasion_rate is None:
        test_evasion_rate = evasion_rate
    train = train_gen.corpus(
        n_ham=round(n_train * (1 - spam_fraction)),
        n_spam=round(n_train * spam_fraction),
        evasion_rate=evasion_rate,
    )
    test = test_gen.corpus(
        n_ham=round(n_test * (1 - spam_fraction)),
        n_spam=round(n_test * spam_fraction),
        evasion_rate=test_evasion_rate,
    )
    return Dataset(train=train, test=test)
