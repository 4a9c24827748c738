"""Human challenge–response (the §2.3 human-effort baseline).

Mailblocks/Active-Spam-Killer style: first contact from an unknown sender
is held; a CAPTCHA-like challenge goes back; the mail is delivered only
when a human answers. The paper's criticisms, all measurable here:
"inconvenient, inefficient and sometimes a challenge can be perceived as
rude" — human actions per message, delivery delay, and abandonment of
legitimate mail when senders ignore challenges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["ChallengeOutcome", "HeldMessage", "ChallengeResponseSystem"]


class ChallengeOutcome(Enum):
    """Final state of a challenged message."""

    DELIVERED = "delivered"  # challenge answered, mail released
    ABANDONED = "abandoned"  # sender never answered; mail lost
    AUTO_ACCEPTED = "auto_accepted"  # sender already verified


@dataclass
class HeldMessage:
    """A message waiting for its sender's challenge answer."""

    sender: str
    recipient: str
    held_at: float
    is_spam: bool


@dataclass
class ChallengeResponseSystem:
    """A per-recipient challenge–response gate.

    Args:
        human_answer_probability: Chance a legitimate human sender
            actually answers the challenge (some find it rude or never
            see it — the paper's point).
        answer_delay_seconds: Typical time for a human to answer.
        bot_solver_rate: Chance a spammer solves a challenge (cheap-labour
            CAPTCHA farms existed even then).
    """

    human_answer_probability: float = 0.85
    answer_delay_seconds: float = 3600.0
    bot_solver_rate: float = 0.0
    _verified: set[str] = field(default_factory=set)
    held: list[HeldMessage] = field(default_factory=list)
    challenges_sent: int = 0
    human_actions: int = 0
    delivered: int = 0
    abandoned: int = 0
    spam_delivered: int = 0
    total_delay_seconds: float = 0.0

    def submit(
        self,
        sender: str,
        recipient: str,
        *,
        now: float,
        is_spam: bool,
        rng,
    ) -> ChallengeOutcome:
        """Process one incoming message end to end.

        The challenge round-trip is resolved immediately using the
        configured probabilities (the delay is accounted, not simulated).
        """
        if sender in self._verified:
            self.delivered += 1
            if is_spam:
                self.spam_delivered += 1
            return ChallengeOutcome.AUTO_ACCEPTED

        self.challenges_sent += 1
        self.held.append(HeldMessage(sender, recipient, now, is_spam))
        answer_probability = (
            self.bot_solver_rate if is_spam else self.human_answer_probability
        )
        if rng.random() < answer_probability:
            self.human_actions += 1  # someone solved a puzzle
            self.total_delay_seconds += self.answer_delay_seconds
            self._verified.add(sender)
            self.delivered += 1
            if is_spam:
                self.spam_delivered += 1
            self.held.pop()
            return ChallengeOutcome.DELIVERED
        self.abandoned += 1
        self.held.pop()
        return ChallengeOutcome.ABANDONED

    # -- reporting -----------------------------------------------------------------

    @property
    def mean_delivery_delay(self) -> float:
        """Average extra latency on challenged-and-answered messages."""
        answered = self.human_actions
        return self.total_delay_seconds / answered if answered else 0.0
