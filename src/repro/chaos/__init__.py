"""Chaos harness: deterministic fault-injection campaigns for Zmail.

The paper's protocol arguments (§3–§4.4) rest on channel and liveness
assumptions — in-order delivery, eventual receipt, nodes that stay up.
This package earns those assumptions the hard way: it injects message
faults (drop, duplicate, reorder, delay), fail-stop crashes of ISPs and
the bank, and verifies continuously that the economic invariants survive
recovery. Campaigns are bit-reproducible from a single seed.

Layers:

* :mod:`.faults` — :class:`FaultyNetwork`, per-link fault injection,
  plus :class:`FloodSpec` burst/flood load injection (overload as a
  first-class fault family);
* :mod:`.monitors` — :class:`InvariantMonitor`, always-on invariant
  checks with first-violation reporting, and :class:`OverloadMonitor`
  for bounded-memory / no-lost-accounting checks;
* :mod:`.snapshot` — :class:`RetryingSnapshotCoordinator`, §4.4
  reconciliation that converges under faults and crashes;
* :mod:`.crash` — :class:`CrashController`, journal-based crash/restart
  on :mod:`repro.core.persistence`;
* :mod:`.deployment` — :class:`ChaosDeployment`, the wired system;
* :mod:`.campaign` — :func:`run_cell`, the chaos drive behind
  ``repro run doc.yaml --mode chaos``: one scenario document's world
  under faults, with a pass/fail report row.
"""

from ..obs.manifest import accounting_digest
from .campaign import run_cell
from .crash import CrashController, CrashEvent
from .deployment import ChaosDeployment
from .faults import (
    NO_FAULTS,
    FaultSpec,
    FaultyNetwork,
    FloodSpec,
    flood_requests,
)
from .monitors import InvariantMonitor, OverloadMonitor, Violation
from .snapshot import RetryingSnapshotCoordinator

__all__ = [
    "run_cell",
    "CrashController",
    "CrashEvent",
    "ChaosDeployment",
    "NO_FAULTS",
    "FaultSpec",
    "FaultyNetwork",
    "FloodSpec",
    "flood_requests",
    "InvariantMonitor",
    "OverloadMonitor",
    "Violation",
    "accounting_digest",
    "RetryingSnapshotCoordinator",
]
