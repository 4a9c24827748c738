"""``repro serve``: a long-running SMTP service over the durable store.

The deployable shape of the reproduction: real RFC 821 conversations on
localhost TCP, one listener per compliant ISP, with the Zmail ledger,
bank and ISP aggregates living in the SQLite write-ahead store. Mail
from a local user arrives unstamped and is submitted outbound (admission
control, accounting, stamping); stamped mail from a peer ISP is
authenticated and delivered. Barrier commits persist the network, the
service clock *and* each gateway's pending deferred queue in one
transaction, so killing the process and starting a new one resumes with
every in-flight retry intact and no midnight replayed or skipped — the
service-level face of the soak harness's recovery-equivalence guarantee.

Also home to ``repro selftest``, the operator's one-command health
check: open the store read-only, verify every checksum, rebuild the
network, assert the credit matrix is anti-symmetric and value is
conserved, then push one message through a live SMTP round trip
(in-memory network copy only — the store is not written).
"""

from __future__ import annotations

import asyncio
from typing import Any

from .. import records
from ..core.overload import OverloadConfig
from ..errors import SimulationError, SMTPProtocolError
from ..records import Field, Record
from ..smtp.gateway import ZmailGateway
from ..smtp.message import MailMessage
from ..smtp.server import SMTPServer
from ..smtp.transport import Envelope, InMemoryTransport
from ..smtp.zmail_headers import read_stamp
from ..smtp.address import from_sim_address, to_sim_address
from ..smtp.client import SMTPClient
from ..sim.clock import DAY
from ..sim.workload import Address
from .backend import DurableStore
from .network import attach_tracker, commit_network, restore_network

__all__ = ["ZmailService", "run_selftest"]

_SERVICE_KIND = "svc"
#: The ``svc`` records besides each gateway's pending journal.
CLOCK = Record(Field("now", float))
OVERLOAD = Record(*records.dataclass_fields(OverloadConfig), cls=OverloadConfig)


class ZmailService:
    """SMTP listeners for every compliant ISP over one durable store.

    Args:
        store: An open :class:`DurableStore` (the service does not close
            it). The network is rebuilt from it on construction and any
            persisted pending gateway queues are rehydrated, so a
            restarted service resumes exactly where the last barrier
            commit left the previous one.
        overload: Admission control for outbound submissions; must match
            the setting of the service that wrote any persisted pending
            queues (a pending journal with no admission layer to load it
            into is a configuration error, surfaced loudly).
        commit_interval: Wall seconds between automatic barrier commits
            once :meth:`start` runs; ``None`` commits only on
            :meth:`commit`/:meth:`stop`.

    Time: the service keeps a logical clock (`now`) advanced by
    :meth:`tick`. It is the network's clock too: each tick runs the
    midnights it crosses (§4.1 limit reset, §4.3 pool rebalance), then
    the gateways' due admission retries, keeping the whole service
    deterministic under test while the asyncio layer stays free to
    schedule ticks off wall time in production. Every commit persists
    the clock, and a restarted service resumes at the largest of it and
    the persisted retry timestamps, so no day is replayed or skipped.
    """

    def __init__(
        self,
        store: DurableStore,
        *,
        overload: OverloadConfig | None = None,
        commit_interval: float | None = None,
    ) -> None:
        self.store = store
        self.network = restore_network(store)
        self.tracker = attach_tracker(self.network)
        self.transport = InMemoryTransport()
        self.overload = overload
        self.commit_interval = commit_interval
        # A store fresh from ``init_store`` (``repro serve`` on a new
        # path) has no clock record yet: it starts at its last midnight.
        self.now = float(self.network._last_day_seen * DAY)
        clock = store.get(_SERVICE_KIND, "clock")
        if clock is not None:
            records.load_into(CLOCK, self, clock, "svc record", "clock")
        self.barrier = store.barrier
        self.messages_handled = 0
        self.unroutable = 0
        self.gateways: dict[int, ZmailGateway] = {}
        for isp_id in sorted(self.network.compliant_isps()):
            gateway = ZmailGateway(
                self.network,
                isp_id,
                self.transport,
                overload=overload,
                clock=lambda: self.now,
            )
            self.transport.register_domain(gateway.domain, gateway.handle_inbound)
            self.gateways[isp_id] = gateway
        self._rehydrate_pending()
        self.servers: dict[int, SMTPServer] = {
            isp_id: SMTPServer(
                self._handler_for(gateway), hostname=gateway.domain
            )
            for isp_id, gateway in self.gateways.items()
        }
        self.addresses: dict[int, tuple[str, int]] = {}
        self._commit_task: asyncio.Task | None = None

    # -- pending-queue persistence ---------------------------------------------------

    def _rehydrate_pending(self) -> None:
        """Reload each gateway's deferred queue from the last commit.

        A journal present in the store while this service runs without
        admission control would silently drop the previous incarnation's
        in-flight retries; ``load_pending_state`` raises for that case.
        """
        for isp_id, gateway in self.gateways.items():
            state = self.store.get(_SERVICE_KIND, f"gateway{isp_id}")
            gateway.load_pending_state(state)
            if state is not None:
                # All persisted timestamps are from the previous
                # incarnation's clock; resume past every one of them so
                # token-refill and backoff arithmetic never see time
                # run backwards.
                admission = gateway._admission
                self.now = max(
                    self.now,
                    admission.bucket._last,
                    *(item.due for item in admission.queue.items),
                )

    def _pending_puts(self) -> list[tuple[str, str, Any]]:
        puts: list[tuple[str, str, Any]] = []
        if self.overload is not None:
            # The admission parameters ride along so a later incarnation
            # (or the selftest) can rebuild a compatible gateway layer
            # without out-of-band configuration.
            puts.append((
                _SERVICE_KIND, "overload", records.dump(OVERLOAD, self.overload)
            ))
        for isp_id, gateway in sorted(self.gateways.items()):
            state = gateway.pending_state()
            if state is not None:
                puts.append((_SERVICE_KIND, f"gateway{isp_id}", state))
        return puts

    # -- SMTP face -------------------------------------------------------------------

    def _handler_for(self, gateway: ZmailGateway):
        def handle(envelope: Envelope) -> None:
            self.messages_handled += 1
            stamp = read_stamp(envelope.message)
            if stamp is None:
                # Unstamped mail is a submission from one of this
                # gateway's own users; anything else is unroutable.
                try:
                    sender = to_sim_address(envelope.mail_from)
                    recipient = to_sim_address(envelope.rcpt_to)
                except SMTPProtocolError:
                    self.unroutable += 1
                    return
                if sender.isp != gateway.isp_id:
                    self.unroutable += 1
                    return
                gateway.submit_outbound(
                    sender.user, recipient, envelope.message
                )
            else:
                gateway.handle_inbound(envelope)

        return handle

    async def start(self, host: str = "127.0.0.1") -> dict[int, tuple[str, int]]:
        """Start every listener; returns ``{isp_id: (host, port)}``."""
        for isp_id, server in sorted(self.servers.items()):
            self.addresses[isp_id] = await server.start(host, 0)
        if self.commit_interval is not None:
            self._commit_task = asyncio.create_task(self._commit_loop())
        return dict(self.addresses)

    async def _commit_loop(self) -> None:
        assert self.commit_interval is not None
        while True:
            await asyncio.sleep(self.commit_interval)
            self.tick(self.commit_interval)
            self.commit()

    async def stop(self, *, commit: bool = True) -> None:
        """Stop listeners and the commit loop; final commit by default.

        ``commit=False`` supports read-only flows (the selftest) that
        run against a store already closed after the initial load.
        """
        if self._commit_task is not None:
            self._commit_task.cancel()
            try:
                await self._commit_task
            except asyncio.CancelledError:
                pass
            self._commit_task = None
        for server in self.servers.values():
            await server.stop()
        if commit:
            self.commit()

    # -- time and durability ---------------------------------------------------------

    def tick(self, seconds: float) -> int:
        """Advance the logical clock, run the midnights it crosses, then
        pump due admission retries."""
        if seconds < 0:
            raise SimulationError(f"cannot tick backwards ({seconds})")
        self.now += seconds
        self.network.note_time(self.now)
        pumped = 0
        for _, gateway in sorted(self.gateways.items()):
            pumped += gateway.pump()
        return pumped

    def commit(self) -> int:
        """Barrier commit: network deltas, clock, pending queues, one txn."""
        self.barrier += 1
        return commit_network(
            self.store,
            self.network,
            self.tracker,
            barrier=self.barrier,
            extra=[(_SERVICE_KIND, "clock", records.dump(CLOCK, self)),
                   *self._pending_puts()],
        )

    def stats(self) -> dict[str, Any]:
        """Operational counters for the status line / tests."""
        return {
            "barrier": self.barrier,
            "now": self.now,
            "messages_handled": self.messages_handled,
            "unroutable": self.unroutable,
            "pending_sends": sum(
                g.pending_sends for g in self.gateways.values()
            ),
            "conserved": (
                self.network.total_value()
                == self.network.expected_total_value()
            ),
        }


def run_selftest(store_path: str) -> dict[str, Any]:
    """``repro selftest``: checksum sweep, invariants, one round trip.

    Pure read: the store is verified and loaded but never written — the
    round-trip message runs against the rebuilt in-memory network copy.

    Returns a report dict with a ``passed`` verdict.

    Raises:
        SimulationError: on any checksum failure or missing state (the
            load path refuses corrupted stores before checking anything
            else).
    """
    with DurableStore.open(store_path) as store:
        checked = store.verify()
        barrier = store.barrier
        overload_blob = store.get(_SERVICE_KIND, "overload")
        overload = (
            records.load(OVERLOAD, overload_blob, "svc record", "overload")
            if overload_blob is not None
            else None
        )
        service = ZmailService(store, overload=overload)
    network = service.network
    reconciliation = network.reconcile("direct")
    conserved = network.total_value() == network.expected_total_value()

    roundtrip = _smtp_roundtrip(service)
    passed = bool(reconciliation.consistent and conserved and roundtrip)
    return {
        "passed": passed,
        "records": checked,
        "barrier": barrier,
        "isps": sorted(service.gateways),
        "anti_symmetric": reconciliation.consistent,
        "conserved": conserved,
        "roundtrip": roundtrip,
    }


def _smtp_roundtrip(service: ZmailService) -> bool:
    """Send one real SMTP message between the first two compliant ISPs.

    With a single compliant ISP the round trip is local (user 0 to user
    1 of the same domain); either way the message must land in the
    recipient's inbox as paid mail. Read-only with respect to the store:
    the service is stopped with ``commit=False``.
    """
    isp_ids = sorted(service.gateways)
    src = isp_ids[0]
    dst = isp_ids[1] if len(isp_ids) > 1 else isp_ids[0]
    sender = str(from_sim_address(Address(src, 0)))
    recipient = str(from_sim_address(Address(dst, 1)))

    async def _run() -> bool:
        await service.start()
        try:
            host, port = service.addresses[src]
            message = MailMessage.compose(
                sender=sender,
                recipient=recipient,
                subject="selftest",
                body="store selftest round trip",
            )
            client = SMTPClient(host, port)
            await client.connect()
            try:
                await client.send(Envelope(sender, recipient, message))
            finally:
                await client.quit()
        finally:
            await service.stop(commit=False)
        box = service.gateways[dst].mailbox(1)
        if service.overload is not None:
            # A rehydrated token bucket may be empty, deferring the probe
            # message; that is backpressure working, not a failure. Pump
            # logical time until the retry goes through (or gives up).
            for _ in range(service.overload.max_retries + 2):
                if box.inbox:
                    break
                service.tick(service.overload.retry_max_interval)
        return len(box.inbox) == 1 and box.inbox[0].paid

    return asyncio.run(_run())
