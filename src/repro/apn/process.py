"""Processes for the Abstract Protocol notation engine.

A process bundles constants, inputs, variables and actions (Section 3):

* **constants** — fixed values shared by every process in the protocol;
* **inputs** — readable but never written by the process's own actions;
* **variables** — read/write local state.

The paper's parameterised actions (``par``) are written as a Python
loop that adds one concrete action per domain value.

The engine does not try to parse the paper's concrete syntax; protocol
authors construct processes programmatically (see
:mod:`repro.apn.zmail_spec` for the paper's §4 spec built this way).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..errors import APNError
from .action import Action, BooleanGuard, ReceiveGuard, TimeoutGuard

__all__ = ["Process"]


class Process:
    """A named AP process with typed state sections and guarded actions."""

    def __init__(
        self,
        name: str,
        *,
        constants: Mapping[str, Any] | None = None,
        inputs: Mapping[str, Any] | None = None,
        variables: Mapping[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.constants: dict[str, Any] = dict(constants or {})
        self.inputs: dict[str, Any] = dict(inputs or {})
        self.variables: dict[str, Any] = dict(variables or {})
        self.actions: list[Action] = []
        self._frozen_inputs = set(self.inputs)

    # -- state access -----------------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        """Read a constant, input or variable by name (variables win ties)."""
        if key in self.variables:
            return self.variables[key]
        if key in self.inputs:
            return self.inputs[key]
        if key in self.constants:
            return self.constants[key]
        raise KeyError(f"process {self.name!r} has no state item {key!r}")

    def __setitem__(self, key: str, value: Any) -> None:
        """Write a variable; constants and inputs are write-protected."""
        if key in self._frozen_inputs:
            raise APNError(f"process {self.name!r}: input {key!r} is read-only")
        if key in self.constants:
            raise APNError(f"process {self.name!r}: constant {key!r} is read-only")
        self.variables[key] = value

    def __contains__(self, key: str) -> bool:
        return (
            key in self.variables or key in self.inputs or key in self.constants
        )

    # -- action declaration --------------------------------------------------------

    def add_action(self, action: Action) -> Action:
        """Register a concrete action on this process."""
        self.actions.append(action)
        return action

    def add_local_action(
        self,
        name: str,
        predicate: Callable[["Process"], bool],
        statement: Callable[["Process"], None],
        *,
        weight: float = 1.0,
        description: str = "",
    ) -> Action:
        """Register a boolean-guarded action."""
        guard = BooleanGuard(predicate, description or name)
        return self.add_action(Action(name, guard, statement, weight))

    def add_receive_action(
        self,
        name: str,
        message_name: str,
        sender: str,
        statement: Callable[..., None],
        *,
        weight: float = 1.0,
    ) -> Action:
        """Register a receive-guarded action for messages from ``sender``."""
        guard = ReceiveGuard(message_name, sender)
        return self.add_action(Action(name, guard, statement, weight))

    def add_timeout_action(
        self,
        name: str,
        predicate: Callable[..., bool],
        statement: Callable[["Process"], None],
        *,
        weight: float = 1.0,
        description: str = "",
    ) -> Action:
        """Register a timeout-guarded action (global-state predicate)."""
        guard = TimeoutGuard(predicate, description or name)
        return self.add_action(Action(name, guard, statement, weight))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Process({self.name!r}, actions={len(self.actions)})"
