"""Crash/restart of individual nodes mid-run.

The crash model is fail-stop with durable storage:

* **Crash** — the node's durable state (ledger, credit arrays, bank
  accounts), its reliable endpoint's sequence state (the mail-queue
  journal) and any admission deferred queue are committed to a
  :class:`~repro.store.backend.DurableStore` at the crash instant.
  Everything volatile is lost: frames in flight, an open snapshot
  pause, the buffered outbox; the endpoint is torn down (cancelling its
  retransmission timers).
* **Restart** — reads *only* the store: a *fresh* node object is built
  and the state loaded into it (for ISPs; the bank restores in place),
  the queues are reloaded, the endpoint reopens and resumes
  retransmitting unacked mail, and any user submissions that arrived
  while the node was down (queued client-side by the deployment) are
  flushed.

Store rows are checksummed, so a corrupted record raises
:class:`~repro.errors.SimulationError` instead of restoring a wrong
ledger. Chaos cells use an in-memory store; the durable soak passes its
file store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..core import persistence
from ..core.isp import CompliantISP
from ..errors import SimulationError
from ..store.backend import DurableStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .deployment import ChaosDeployment

__all__ = ["CrashEvent", "CrashController"]

_NODE_KIND = "journal"
_ENDPOINT_KIND = "endpoint"
_ADMISSION_KIND = "admission"


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled crash: ``node`` goes down at ``at`` for ``down_for``."""

    node: str
    at: float
    down_for: float

    def __post_init__(self) -> None:
        if self.at < 0 or self.down_for <= 0:
            raise SimulationError(
                f"crash of {self.node!r} needs at >= 0 and down_for > 0"
            )


class CrashController:
    """Executes scheduled crashes and restarts against a deployment,
    keeping crashed nodes' records in ``store`` (default: in memory)."""

    def __init__(
        self, deployment: "ChaosDeployment", store: DurableStore | None = None
    ) -> None:
        self.deployment = deployment
        if store is None:
            store = DurableStore.create(":memory:")
        self.store = store
        self.crashes = 0
        self.restarts = 0

    def schedule(self, event: CrashEvent) -> None:
        """Arm one crash/restart pair on the deployment's engine."""
        deployment = self.deployment
        if event.node != "bank":
            isp_id = self._isp_id(event.node)
            if not isinstance(deployment.network.isps[isp_id], CompliantISP):
                raise SimulationError(
                    f"cannot crash non-compliant {event.node!r} "
                    "(it keeps no durable state to restore)"
                )
        deployment.engine.schedule_at(
            event.at, lambda: self.crash(event.node), label=f"crash {event.node}"
        )
        deployment.engine.schedule_at(
            event.at + event.down_for,
            lambda: self.restart(event.node),
            label=f"restart {event.node}",
        )

    @staticmethod
    def _isp_id(node: str) -> int:
        if not node.startswith("isp"):
            raise SimulationError(f"unknown node {node!r} (want 'ispN' or 'bank')")
        return int(node[3:])

    # -- crash ------------------------------------------------------------------

    def crash(self, node: str) -> None:
        """Fail-stop ``node`` now: commit durable state, drop the rest."""
        from ..store.wire import encode_send, encode_wire

        deployment = self.deployment
        if deployment.net.is_down(node):
            raise SimulationError(f"{node!r} is already down")
        admission = None
        if node == "bank":
            state = persistence.bank_state(deployment.network.bank)
            deployment.coordinator.on_bank_crash()
        else:
            isp_id = self._isp_id(node)
            isp = deployment.network.isps[isp_id]
            assert isinstance(isp, CompliantISP)
            state = persistence.isp_state(isp)
            deployment.coordinator.on_isp_crash(isp_id)
            admission = deployment.network.overload_controllers().get(isp_id)
        deployment.net.set_down(node)
        endpoint = deployment.endpoints[node]
        endpoint.close()
        puts: list[tuple[str, str, Any]] = [
            (_NODE_KIND, node, state),
            (_ENDPOINT_KIND, node, endpoint.state_dict(encode_wire)),
        ]
        if admission is not None:
            puts.append(
                (_ADMISSION_KIND, node, admission.state_dict(encode_send))
            )
        self.store.commit(puts, barrier=self.store.barrier)
        self.crashes += 1
        tracer = deployment.tracer
        if tracer.enabled:
            tracer.emit("crash", node=node)

    # -- restart ----------------------------------------------------------------

    def restart(self, node: str) -> None:
        """Bring ``node`` back from the store and resume its mail queue."""
        from ..store.wire import decode_send, decode_wire

        deployment = self.deployment
        if not deployment.net.is_down(node):
            raise SimulationError(f"{node!r} is not down")
        state = self.store.get(_NODE_KIND, node)
        if state is None:
            raise SimulationError(f"store holds no crash journal for {node!r}")
        endpoint_state = self.store.get(_ENDPOINT_KIND, node)
        if endpoint_state is None:
            raise SimulationError(
                f"store holds no endpoint state for {node!r}"
            )
        deployment.endpoints[node].load_state(endpoint_state, decode_wire)
        if node == "bank":
            persistence.load_bank_state(deployment.network.bank, state)
        else:
            isp_id = self._isp_id(node)
            admission_state = self.store.get(_ADMISSION_KIND, node)
            if admission_state is not None:
                deployment.network.overload_controllers()[isp_id].load_state(
                    admission_state, decode_send
                )
            fresh = CompliantISP(
                isp_id,
                deployment.network.users_per_isp,
                deployment.network.config,
            )
            persistence.load_isp_state(fresh, state)
            deployment.network.isps[isp_id] = fresh
        self.store.commit(
            [],
            barrier=self.store.barrier,
            deletes=[
                (_NODE_KIND, node),
                (_ENDPOINT_KIND, node),
                (_ADMISSION_KIND, node),
            ],
        )
        deployment.net.set_up(node)
        deployment.endpoints[node].reopen()
        self.restarts += 1
        tracer = deployment.tracer
        if tracer.enabled:
            tracer.emit("restart", node=node)
        deployment.flush_deferred(node)
