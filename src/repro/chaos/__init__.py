"""Chaos harness: deterministic fault-injection campaigns for Zmail.

The paper's protocol arguments (§3–§4.4) rest on channel and liveness
assumptions — in-order delivery, eventual receipt, nodes that stay up.
This package earns those assumptions the hard way: it injects message
faults (drop, duplicate, reorder, delay), fail-stop crashes of ISPs and
the bank, and verifies continuously that the economic invariants survive
recovery. Campaigns are bit-reproducible from a single seed.

Layers:

* :mod:`.faults` — :class:`FaultyNetwork`, per-link fault injection;
* :mod:`.monitors` — :class:`InvariantMonitor`, always-on invariant
  checks with first-violation reporting, and :class:`OverloadMonitor`
  for bounded-memory / no-lost-accounting checks;
* :mod:`.snapshot` — :class:`RetryingSnapshotCoordinator`, §4.4
  reconciliation that converges under faults and crashes;
* :mod:`.crash` — :class:`CrashController`, fail-stop crash/restart
  through the durable store (:mod:`repro.store`);
* :mod:`.deployment` — :class:`ChaosDeployment`, the wired system;
* :mod:`.campaign` — :func:`deploy`, a scenario document's deployment
  and traffic, and :func:`run_cell`, the chaos drive behind ``repro run
  doc.yaml --mode chaos``: one document's world under faults, with a
  pass/fail report row.

A chaos cell runs the document's own traffic — normal mail, spam
campaigns, zombie bursts and floods, drawn by the same workloads every
other drive draws from (:meth:`repro.core.scenario.Scenario
.workload_streams`) — so any document runs on it, strategy worlds once
lowered. Overload is a flood term, injected where mail enters the
system rather than on the wire.
"""

from .campaign import run_cell
from .crash import CrashController, CrashEvent
from .deployment import ChaosDeployment
from .faults import NO_FAULTS, FaultSpec, FaultyNetwork
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
    "InvariantMonitor",
    "OverloadMonitor",
    "Violation",
    "RetryingSnapshotCoordinator",
]
