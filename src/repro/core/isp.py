"""Compliant and non-compliant ISPs.

:class:`CompliantISP` is the deployable counterpart of the paper's
``isp[i]`` process: it manages user purses through a :class:`Ledger`,
maintains the inter-ISP ``credit`` array, enforces daily limits, pauses
and buffers sends during credit snapshots, applies the configured policy
to mail from non-compliant peers, and rebalances its e-penny pool with
the bank.

:class:`NonCompliantISP` models the rest of the Internet: it forwards
mail without any accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import SimulationError, SnapshotInProgress
from ..sim.workload import Address, TrafficKind
from .config import NonCompliantMailPolicy, ZmailConfig
from .ledger import Ledger
from .transfer import (
    RECEIPT_BLOCKED_BALANCE,
    RECEIPT_BLOCKED_LIMIT,
    RECEIPT_BUFFERED,
    RECEIPT_DELIVERED_LOCAL,
    Letter,
    SendReceipt,
    SendStatus,
)

__all__ = ["DeliveryStats", "CompliantISP", "NonCompliantISP", "RemoteISP"]


@dataclass(slots=True)
class DeliveryStats:
    """Per-ISP message accounting used by the experiments."""

    sent_paid: int = 0
    sent_unpaid: int = 0
    delivered_local: int = 0
    received_paid: int = 0
    received_unpaid: int = 0
    blocked_balance: int = 0
    blocked_limit: int = 0
    buffered: int = 0
    junked: int = 0
    discarded: int = 0
    filtered_out: int = 0


@dataclass(slots=True)
class _SnapshotState:
    """Book-keeping while a credit snapshot is in progress."""

    seq: int
    replied: bool = False
    # Marker-method channel recording: once a peer's marker has arrived,
    # further mail from that peer books to the *next* period.
    marker_seen: set[int] = field(default_factory=set)
    new_period_credit: dict[int, int] = field(default_factory=dict)


class CompliantISP:
    """A Zmail-running ISP.

    Args:
        isp_id: Index of this ISP in the deployment.
        n_users: Users created up front (ids ``0..n_users-1``).
        config: Deployment parameters.
        spam_filter: Optional predicate for the FILTER policy; returns
            ``True`` when a message should be *kept* (not spam).
    """

    def __init__(
        self,
        isp_id: int,
        n_users: int,
        config: ZmailConfig | None = None,
        *,
        spam_filter: Callable[[Letter], bool] | None = None,
    ) -> None:
        self.isp_id = isp_id
        self.config = config or ZmailConfig()
        self.ledger = Ledger(initial_pool=self.config.initial_pool)
        # Lazy genesis: accounts materialise on first touch, so a
        # million-user ISP constructs in O(1) and holds O(hot set) memory.
        self.ledger.genesis_users(
            n_users,
            account=self.config.default_user_account,
            balance=self.config.default_user_balance,
            daily_limit=self.config.default_daily_limit,
        )
        self.credit: dict[int, int] = {}
        self.stats = DeliveryStats()
        self.cansend = True
        self._snapshot: _SnapshotState | None = None
        self._early_markers: set[int] = set()
        self._outbox_buffer: list[
            tuple[int, Address, TrafficKind, tuple[str, ...] | None]
        ] = []
        self._spam_filter = spam_filter
        self.compliance_view: dict[int, bool] = {isp_id: True}
        # Per-user limit-hit counters. A bounded dict (at most one entry
        # per user) rather than an append-only event log: a zombie
        # hammering its daily limit in a million-message run used to grow
        # this without bound; the zombie-detection signal only needs who
        # hit the limit and how often.
        self.limit_hits: dict[int, int] = {}

    # -- compliance directory -----------------------------------------------------

    def update_compliance(self, directory: dict[int, bool]) -> None:
        """Install the bank's published ``compliant`` array (§4)."""
        self.compliance_view = dict(directory)

    def _is_compliant(self, isp_id: int) -> bool:
        return self.compliance_view.get(isp_id, False)

    # -- sending (§4.1) ---------------------------------------------------------------

    def submit(
        self,
        sender_user: int,
        recipient: Address,
        kind: TrafficKind,
        content: tuple[str, ...] | None = None,
    ) -> SendReceipt:
        """A user asks to send one email; apply the §4.1 decision tree.

        Never raises for ordinary outcomes — blocked sends are reported in
        the receipt so workloads can count them.
        """
        if not self.cansend:
            # §4.4: "these emails will be buffered and sent right after
            # the timeout expires."
            self._outbox_buffer.append((sender_user, recipient, kind, content))
            self.stats.buffered += 1
            return RECEIPT_BUFFERED
        return self._submit_now(sender_user, recipient, kind, content)

    def _submit_now(
        self,
        sender_user: int,
        recipient: Address,
        kind: TrafficKind,
        content: tuple[str, ...] | None = None,
    ) -> SendReceipt:
        # Hot path: the limit/balance guards mirror
        # UserAccount.check_send_allowed / debit_epennies but without
        # raising — a blocked send is an ordinary outcome here, and at
        # campaign scale (millions of blocked spam sends) the exception
        # machinery dominated the profile.
        user = self.ledger.user(sender_user)
        if recipient.isp == self.isp_id:
            # Local delivery: e-penny moves between two local balances.
            if user.sent_today >= user.daily_limit:
                user.limit_warnings += 1
                self.stats.blocked_limit += 1
                self._note_limit_hit(user.user_id, user.sent_today)
                return RECEIPT_BLOCKED_LIMIT
            if user.balance < 1:
                self.stats.blocked_balance += 1
                return RECEIPT_BLOCKED_BALANCE
            user.balance -= 1
            user.note_sent()
            receiver = self.ledger.user(recipient.user)
            receiver.balance += 1
            receiver.note_received()
            self.stats.delivered_local += 1
            return RECEIPT_DELIVERED_LOCAL

        if self._is_compliant(recipient.isp):
            if user.sent_today >= user.daily_limit:
                user.limit_warnings += 1
                self.stats.blocked_limit += 1
                self._note_limit_hit(user.user_id, user.sent_today)
                return RECEIPT_BLOCKED_LIMIT
            if user.balance < 1:
                self.stats.blocked_balance += 1
                return RECEIPT_BLOCKED_BALANCE
            user.balance -= 1
            user.note_sent()
            self.credit[recipient.isp] = self.credit.get(recipient.isp, 0) + 1
            self.stats.sent_paid += 1
            letter = Letter(
                Address(self.isp_id, sender_user), recipient, kind,
                paid=True, content=content,
            )
            return SendReceipt(SendStatus.SENT_PAID, letter)

        # Non-compliant destination: no payment, no limit charge in the
        # paper's pseudocode (the compliant branch guards both).
        self.stats.sent_unpaid += 1
        letter = Letter(
            Address(self.isp_id, sender_user), recipient, kind,
            paid=False, content=content,
        )
        return SendReceipt(SendStatus.SENT_UNPAID, letter)

    def _note_limit_hit(self, user_id: int, sent_today: int) -> None:
        self.limit_hits[user_id] = self.limit_hits.get(user_id, 0) + 1

    # -- receiving (§4.1) ----------------------------------------------------------

    def deliver(self, letter: Letter) -> bool:
        """Handle an arriving letter; returns ``True`` if it reached a user.

        Payment attaches iff the *source ISP* is compliant — identity, not
        message content, decides (mirroring ``rcv email(s,r) from isp[g]``).
        """
        if letter.recipient.user not in self.ledger:
            return False  # unknown local part; silently dropped
        receiver = self.ledger.user(letter.recipient.user)
        src = letter.src_isp
        if self._is_compliant(src):
            receiver.balance += 1  # credit_epennies(1), sans the call
            self._book_received_credit(src)
            receiver.note_received()
            self.stats.received_paid += 1
            return True
        return self._deliver_noncompliant(letter, receiver)

    def _book_received_credit(self, src: int) -> None:
        snapshot = self._snapshot
        if snapshot is not None and src in snapshot.marker_seen:
            # Marker method: mail overtaking the cut books to next period.
            snapshot.new_period_credit[src] = (
                snapshot.new_period_credit.get(src, 0) - 1
            )
            return
        self.credit[src] = self.credit.get(src, 0) - 1

    def _deliver_noncompliant(self, letter: Letter, receiver) -> bool:
        policy = self.config.noncompliant_policy
        if policy is NonCompliantMailPolicy.DISCARD:
            self.stats.discarded += 1
            return False
        if policy is NonCompliantMailPolicy.SEGREGATE:
            receiver.note_received(junk=True, paid=False)
            self.stats.junked += 1
            self.stats.received_unpaid += 1
            return True
        if policy is NonCompliantMailPolicy.FILTER and self._spam_filter is not None:
            if not self._spam_filter(letter):
                self.stats.filtered_out += 1
                return False
        receiver.note_received(paid=False)
        self.stats.received_unpaid += 1
        return True

    # -- snapshots (§4.4) ------------------------------------------------------------

    def begin_snapshot(self, seq: int) -> None:
        """Bank request received: stop sending, start the quiesce window."""
        if self._snapshot is not None:
            raise SnapshotInProgress(
                f"isp {self.isp_id}: snapshot {self._snapshot.seq} still open"
            )
        self.cansend = False
        self._snapshot = _SnapshotState(seq=seq)
        # Markers that raced ahead of our own request still mark the cut on
        # their links (FIFO guarantees no mail slipped between them and now).
        self._snapshot.marker_seen = set(self._early_markers)
        self._early_markers = set()

    def note_marker(self, from_isp: int) -> None:
        """Marker method: a peer's channel marker arrived on our link."""
        if self._snapshot is not None:
            self._snapshot.marker_seen.add(from_isp)
        else:
            self._early_markers.add(from_isp)

    def snapshot_reply(self) -> dict[int, int]:
        """Produce the credit array for the bank and reset it (§4.4).

        The caller (a snapshot coordinator) invokes this once quiescence
        is reached; sending stays paused until :meth:`resume_sending`.
        """
        if self._snapshot is None:
            raise SnapshotInProgress(f"isp {self.isp_id}: no snapshot open")
        reply = dict(self.credit)
        self.credit = dict(self._snapshot.new_period_credit)
        self._snapshot.new_period_credit = {}
        self._snapshot.replied = True
        return reply

    def snapshot_peek(self) -> dict[int, int]:
        """Read the credit array mid-snapshot *without* committing the reset.

        The chaos harness's retrying coordinator verifies anti-symmetry on
        peeks first and only commits (:meth:`snapshot_reply`) once the cut
        is known consistent — an inconsistent attempt is aborted and
        retried with a longer quiesce window, leaving the arrays intact.
        """
        if self._snapshot is None:
            raise SnapshotInProgress(f"isp {self.isp_id}: no snapshot open")
        return dict(self.credit)

    def abort_snapshot(self) -> list[SendReceipt]:
        """Abandon an open snapshot without replying (crash/retry path).

        Equivalent to :meth:`resume_sending`: the pause ends, buffered
        sends flush, and the credit arrays are untouched — nothing was
        committed, so nothing needs rolling back.
        """
        return self.resume_sending()

    def resume_sending(self) -> list[SendReceipt]:
        """End the snapshot pause and flush the buffered outbox.

        Returns the receipts of the flushed sends so the network layer can
        route any letters they produced.
        """
        self._snapshot = None
        self.cansend = True
        buffered, self._outbox_buffer = self._outbox_buffer, []
        return [self._submit_now(s, r, k, c) for s, r, k, c in buffered]

    @property
    def snapshot_open(self) -> bool:
        """Whether a snapshot pause is currently in effect."""
        return self._snapshot is not None

    # -- pool management (§4.3) ---------------------------------------------------------

    def pool_deficit(self) -> int:
        """E-pennies needed to lift the pool back to the midpoint, or 0."""
        if self.ledger.pool >= self.config.minavail:
            return 0
        midpoint = (self.config.minavail + self.config.maxavail) // 2
        return midpoint - self.ledger.pool

    def pool_surplus(self) -> int:
        """E-pennies above maxavail to sell down to the midpoint, or 0."""
        if self.ledger.pool <= self.config.maxavail:
            return 0
        midpoint = (self.config.minavail + self.config.maxavail) // 2
        return self.ledger.pool - midpoint

    # -- daily cycle ---------------------------------------------------------------------

    def midnight(self) -> list[int]:
        """Reset all users' daily send counters (§4.1 reset action).

        Returns the ids of the users it reset.
        """
        return self.ledger.reset_daily_counters()

    def zombie_suspects(self) -> list[int]:
        """Users who hit their daily limit — §5's zombie detection signal."""
        return sorted(self.limit_hits)


class NonCompliantISP:
    """An ISP outside Zmail: delivers whatever arrives, pays nothing."""

    def __init__(self, isp_id: int, n_users: int) -> None:
        self.isp_id = isp_id
        self.n_users = n_users
        self.stats = DeliveryStats()

    def submit(
        self,
        sender_user: int,
        recipient: Address,
        kind: TrafficKind,
        content: tuple[str, ...] | None = None,
    ) -> SendReceipt:
        """Send without any accounting (free, unlimited)."""
        if recipient.isp == self.isp_id:
            self.stats.delivered_local += 1
            return RECEIPT_DELIVERED_LOCAL
        self.stats.sent_unpaid += 1
        letter = Letter(
            Address(self.isp_id, sender_user), recipient, kind,
            paid=False, content=content,
        )
        return SendReceipt(SendStatus.SENT_UNPAID, letter)

    def deliver(self, letter: Letter) -> bool:
        """Accept anything addressed to one of our user slots."""
        if letter.recipient.user >= self.n_users:
            return False
        self.stats.received_unpaid += 1
        return True


class RemoteISP:
    """A placeholder for an ISP homed on another shard.

    The cluster runtime gives each worker only its own slice of the
    deployment; every other ISP appears as a ``RemoteISP`` carrying just
    the identity and the advertised compliance flag (enough for the
    compliance directory and paid-route decisions). Any attempt to make
    it send or receive locally is a routing bug, so both entry points
    raise — cross-shard letters must travel the inter-shard links and be
    delivered by the destination ISP's home shard.
    """

    def __init__(self, isp_id: int, *, compliant: bool) -> None:
        self.isp_id = isp_id
        self.compliant = compliant

    def submit(
        self,
        sender_user: int,
        recipient: Address,
        kind: TrafficKind,
        content: tuple[str, ...] | None = None,
    ) -> SendReceipt:
        raise SimulationError(
            f"isp{self.isp_id} is remote: its home shard owns its senders"
        )

    def deliver(self, letter: Letter) -> bool:
        raise SimulationError(
            f"isp{self.isp_id} is remote: letter {letter!r} missed its shard"
        )
