"""Nondeterministic weakly-fair execution of AP protocols.

Section 3's execution rules:

1. an action is executed only when its guard is true;
2. actions execute one at a time;
3. an action whose guard is continuously true is eventually executed.

:class:`ProtocolState` wires processes together with one FIFO channel per
ordered process pair (created lazily). :class:`Scheduler` repeatedly picks
one enabled action — randomly, weighted, from a seeded stream — and runs
its statement. Randomized selection gives rule 3 probabilistically, which
is the standard way to explore AP protocols by simulation; invariant
callbacks run after every step, turning the scheduler into a lightweight
randomized model checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import APNError, GuardError
from .action import Action, BooleanGuard, ReceiveGuard, TimeoutGuard
from .channel import Channel, Message
from .process import Process

__all__ = ["ProtocolState", "Scheduler", "InvariantViolation", "StepRecord"]


class InvariantViolation(APNError):
    """An invariant callback returned False after a step."""


@dataclass(frozen=True)
class StepRecord:
    """Trace entry: which process fired which action at which step."""

    step: int
    process: str
    action: str


class ProtocolState:
    """All processes and channels of one protocol instance."""

    def __init__(self, processes: Iterable[Process]) -> None:
        self.processes: dict[str, Process] = {}
        for proc in processes:
            if proc.name in self.processes:
                raise APNError(f"duplicate process name {proc.name!r}")
            self.processes[proc.name] = proc
        self._channels: dict[tuple[str, str], Channel] = {}

    def process(self, name: str) -> Process:
        """Look up a process by name."""
        try:
            return self.processes[name]
        except KeyError:
            raise APNError(f"unknown process {name!r}") from None

    def channel(self, src: str, dst: str) -> Channel:
        """The FIFO channel from ``src`` to ``dst`` (created on first use)."""
        key = (src, dst)
        chan = self._channels.get(key)
        if chan is None:
            if src not in self.processes or dst not in self.processes:
                raise APNError(f"channel endpoints unknown: {src!r}->{dst!r}")
            chan = Channel(src, dst)
            self._channels[key] = chan
        return chan

    def send(self, src: str, dst: str, message: Message) -> None:
        """Send ``message`` on the channel ``src -> dst``."""
        self.channel(src, dst).send(message)

    def channels(self) -> dict[tuple[str, str], Channel]:
        """All channels created so far."""
        return dict(self._channels)

    def in_flight(self) -> int:
        """Total messages currently residing in all channels."""
        return sum(len(c) for c in self._channels.values())


class Scheduler:
    """Randomized weakly-fair executor with invariant checking.

    Example:
        >>> # p increments x while x < 3
        >>> p = Process("p", variables={"x": 0})
        >>> _ = p.add_local_action(
        ...     "inc", lambda pr: pr["x"] < 3,
        ...     lambda pr: pr.__setitem__("x", pr["x"] + 1))
        >>> sched = Scheduler([p], seed=7)
        >>> sched.run(max_steps=10)
        3
        >>> p["x"]
        3
    """

    def __init__(
        self,
        processes: Iterable[Process],
        *,
        seed: int = 0,
        trace: bool = False,
    ) -> None:
        self.state = ProtocolState(processes)
        self._rng = random.Random(seed)
        self._invariants: list[tuple[str, Callable[[ProtocolState], bool]]] = []
        self.steps_executed = 0
        self.trace: list[StepRecord] = []
        self._tracing = trace

    # -- invariants ----------------------------------------------------------------

    def add_invariant(
        self, name: str, predicate: Callable[[ProtocolState], bool]
    ) -> None:
        """Check ``predicate`` after every step; raise on violation."""
        self._invariants.append((name, predicate))

    def check_invariants(self) -> None:
        """Run all invariant predicates once, raising on the first failure."""
        for name, predicate in self._invariants:
            if not predicate(self.state):
                raise InvariantViolation(
                    f"invariant {name!r} violated after step {self.steps_executed}"
                )

    # -- guard evaluation ----------------------------------------------------------

    def _is_enabled(self, proc: Process, action: Action) -> Message | bool:
        """Evaluate an action's guard.

        Returns the head message for an enabled receive guard (so the
        statement can consume it), ``True`` for other enabled guards, and
        ``False`` when disabled.
        """
        guard = action.guard
        if isinstance(guard, BooleanGuard):
            result = guard.predicate(proc)
            if not isinstance(result, bool):
                raise GuardError(
                    f"guard of {proc.name}.{action.name} returned {result!r}"
                )
            return result
        if isinstance(guard, ReceiveGuard):
            chan = self.state.channel(guard.sender, proc.name)
            head = chan.peek()
            if head is not None and head.name == guard.message_name:
                return head
            return False
        if isinstance(guard, TimeoutGuard):
            result = guard.predicate(self.state, proc)
            if not isinstance(result, bool):
                raise GuardError(
                    f"timeout guard of {proc.name}.{action.name} "
                    f"returned {result!r}"
                )
            return result
        raise GuardError(f"unknown guard type {type(guard).__name__}")

    def enabled_actions(self) -> list[tuple[Process, Action, Message | bool]]:
        """All currently enabled (process, action, guard-result) triples."""
        enabled = []
        for proc in self.state.processes.values():
            for action in proc.actions:
                result = self._is_enabled(proc, action)
                if result is not False:
                    enabled.append((proc, action, result))
        return enabled

    # -- execution -----------------------------------------------------------------

    def step(self) -> bool:
        """Execute one randomly chosen enabled action.

        Returns ``False`` when no action is enabled (protocol quiescent).
        """
        enabled = self.enabled_actions()
        if not enabled:
            return False
        weights = [action.weight for _, action, _ in enabled]
        proc, action, guard_result = self._rng.choices(enabled, weights)[0]
        if isinstance(action.guard, ReceiveGuard):
            chan = self.state.channel(action.guard.sender, proc.name)
            message = chan.receive()
            action.statement(proc, message)
        else:
            action.statement(proc)
        action.fired += 1
        self.steps_executed += 1
        if self._tracing:
            self.trace.append(
                StepRecord(self.steps_executed, proc.name, action.name)
            )
        self.check_invariants()
        return True

    def run(self, max_steps: int = 10_000) -> int:
        """Execute up to ``max_steps`` actions; stop early on quiescence.

        Returns:
            The number of steps actually executed.
        """
        executed = 0
        for _ in range(max_steps):
            if not self.step():
                break
            executed += 1
        return executed
