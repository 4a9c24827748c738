"""Guarded actions for the Abstract Protocol notation engine.

An action is ``<guard> -> <statement>``. The paper (Section 3) allows three
guard forms:

1. a boolean expression over the process's constants and variables,
2. a receive guard ``rcv <message> from q``,
3. a timeout guard — a boolean expression over *every* process's state and
   the contents of *all* channels (used for the snapshot timeout in §4.4).

Statements are modelled as plain Python callables that mutate the owning
process's variables and send messages through the engine; the engine
guarantees the AP execution rules (enabled-only, one at a time, weak
fairness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .process import Process
    from .scheduler import ProtocolState

__all__ = ["BooleanGuard", "ReceiveGuard", "TimeoutGuard", "Action"]


@dataclass(frozen=True)
class BooleanGuard:
    """Guard form 1: a predicate over the owning process's local state."""

    predicate: Callable[["Process"], bool]
    description: str = "local"

    def __str__(self) -> str:
        return self.description


@dataclass(frozen=True)
class ReceiveGuard:
    """Guard form 2: ``rcv <name> from <sender>``.

    Enabled when the head of the channel ``sender -> self`` is a message
    with the given name. The statement receives the matched message.
    """

    message_name: str
    sender: str
    description: str = ""

    def __str__(self) -> str:
        return self.description or f"rcv {self.message_name} from {self.sender}"


@dataclass(frozen=True)
class TimeoutGuard:
    """Guard form 3: a predicate over the entire protocol state.

    The predicate sees a :class:`ProtocolState` view — every process and
    every channel — matching the paper's definition of a timeout guard.
    """

    predicate: Callable[["ProtocolState"], bool]
    description: str = "timeout"

    def __str__(self) -> str:
        return self.description


Guard = BooleanGuard | ReceiveGuard | TimeoutGuard


@dataclass
class Action:
    """One guarded action of a process.

    Attributes:
        name: Identifier used in traces ("send-email", "rcv-buyreply", ...).
        guard: One of the three guard forms.
        statement: For boolean/timeout guards, called as ``statement(proc)``;
            for receive guards, called as ``statement(proc, message)`` where
            ``message`` is the received :class:`Message`.
        weight: Relative probability weight used by the random scheduler to
            bias action selection (defaults to 1; e.g. the daily ``sent``
            reset gets a small weight so it fires rarely, mimicking "at the
            end of every day").
    """

    name: str
    guard: Guard
    statement: Callable[..., None]
    weight: float = 1.0
    fired: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"{self.name}: {self.guard} ->"

