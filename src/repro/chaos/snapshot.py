"""A crash-tolerant, retrying §4.4 snapshot coordinator.

The coordinators in :mod:`repro.core.snapshot` assume a benign network:
one request, one quiesce window, one commit. Under chaos — lost frames,
crashed ISPs, a crashed bank — that protocol either deadlocks or, worse,
commits an inconsistent cut (and then honest ISPs look like cheaters).

:class:`RetryingSnapshotCoordinator` runs a two-phase variant:

1. **Peek phase** — the bank broadcasts a request over reliable links;
   each ISP pauses sending, waits out the quiesce window, then replies
   with a *non-committing copy* of its credit array
   (:meth:`~repro.core.isp.CompliantISP.snapshot_peek`).
2. **Commit or retry** — the bank verifies anti-symmetry over the peeks.
   A consistent matrix means no paid mail was in flight at the cut, so
   the commit (:meth:`snapshot_reply` + resume + ``bank.reconcile``) is
   applied atomically in one engine callback. An inconsistent matrix or a
   timed-out round is *aborted* — peeks committed nothing, so the ISPs
   just resume — and retried with an exponentially longer quiesce window.

Crash handling: a crashed ISP simply fails to reply (its round times out
and retries once it is back); a crashed bank cancels its round timers and
ISP-side *orphan timeouts* release any ISP left paused by a request whose
coordinator died. Convergence rather than single-round success is the
guarantee — exactly what the paper's free-market framing needs from its
settlement layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.isp import CompliantISP
from ..core.misbehavior import ReconciliationReport, verify_credit_matrix
from ..sim.events import EventHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .deployment import ChaosDeployment

__all__ = [
    "ChaosSnapshotRequest",
    "ChaosSnapshotReply",
    "SnapshotAbort",
    "RoundOutcome",
    "RetryingSnapshotCoordinator",
]

#: Quiesce window (seconds) of a round's first attempt; each retry
#: multiplies it by ``QUIESCE_GROWTH``, up to ``MAX_QUIESCE``.
QUIESCE = 2.0
QUIESCE_GROWTH = 2.0
MAX_QUIESCE = 60.0
#: Base wait for all replies before an attempt is abandoned; it grows by
#: the attempt's quiesce window per expected ISP.
ROUND_TIMEOUT = 30.0
#: Pause between an aborted attempt and the next one.
RETRY_DELAY = 1.0
#: Attempts per round before giving up (a given-up round fails the cell).
MAX_ATTEMPTS = 8
#: ISP-side deadline after which a still-open snapshot whose coordinator
#: went silent is aborted locally.
ORPHAN_TIMEOUT = 120.0


@dataclass(frozen=True)
class ChaosSnapshotRequest:
    """Bank → ISP: pause, quiesce, then reply with a credit peek."""

    token: int
    quiesce: float


@dataclass(frozen=True)
class ChaosSnapshotReply:
    """ISP → bank: the non-committing credit peek for one round attempt."""

    token: int
    isp_id: int
    credit: dict[int, int]


@dataclass(frozen=True)
class SnapshotAbort:
    """Bank → ISP: abandon the attempt identified by ``token``; resume."""

    token: int


@dataclass
class RoundOutcome:
    """What one reconciliation round (all its attempts) produced."""

    started_at: float
    attempts: int = 0
    committed: bool = False
    interrupted: bool = False
    report: ReconciliationReport | None = None
    finished_at: float | None = None


@dataclass
class _Round:
    """Book-keeping for the attempt currently on the wire."""

    token: int
    attempt: int
    expected: frozenset[int]
    peeks: dict[int, dict[int, int]] = field(default_factory=dict)
    timeout_handle: EventHandle | None = None


class RetryingSnapshotCoordinator:
    """Drives retrying credit snapshots over a chaos deployment.

    Args:
        deployment: Provides the engine, the reliable endpoints, the
            Zmail network and crash state.

    Its timing is the module constants: :data:`QUIESCE` grown by
    :data:`QUIESCE_GROWTH` per retry up to :data:`MAX_QUIESCE`,
    :data:`ROUND_TIMEOUT`, :data:`RETRY_DELAY`, :data:`MAX_ATTEMPTS` and
    :data:`ORPHAN_TIMEOUT`.
    """

    def __init__(self, deployment: "ChaosDeployment") -> None:
        self.deployment = deployment
        self._next_token = 0
        self._round: _Round | None = None
        self._outcome: RoundOutcome | None = None
        # ISP-side: which attempt token each ISP's open snapshot belongs to.
        self._open_tokens: dict[int, int] = {}
        self.rounds: list[RoundOutcome] = []
        self.rounds_skipped = 0
        self.aborted_attempts = 0
        self.orphan_aborts = 0

    # -- driving ----------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether a round is currently in progress."""
        return self._round is not None

    @property
    def rounds_committed(self) -> int:
        """Rounds that ended with a consistent, committed snapshot."""
        return sum(1 for outcome in self.rounds if outcome.committed)

    @property
    def rounds_failed(self) -> int:
        """Rounds that gave up without committing (excludes interrupted)."""
        return sum(
            1
            for outcome in self.rounds
            if not outcome.committed and not outcome.interrupted
        )

    def _trace_round(self, attempt: int, outcome: str) -> None:
        """Emit one ``snapshot.round`` trace event for the current round."""
        tracer = self.deployment.tracer
        if tracer.enabled:
            tracer.emit(
                "snapshot.round",
                round=len(self.rounds),
                attempt=attempt,
                outcome=outcome,
            )

    def trigger(self) -> None:
        """Start a reconciliation round unless one is running or the bank is down."""
        deployment = self.deployment
        if self._round is not None or deployment.net.is_down("bank"):
            self.rounds_skipped += 1
            return
        self._outcome = RoundOutcome(started_at=deployment.engine.now)
        self.rounds.append(self._outcome)
        self._begin_attempt(1)

    def _attempt_quiesce(self, attempt: int) -> float:
        return min(QUIESCE * QUIESCE_GROWTH ** (attempt - 1), MAX_QUIESCE)

    def _begin_attempt(self, attempt: int) -> None:
        deployment = self.deployment
        assert self._outcome is not None
        if attempt > MAX_ATTEMPTS:
            # Give up: the round is recorded as failed; campaign fails.
            self._trace_round(attempt - 1, "giveup")
            self._outcome.finished_at = deployment.engine.now
            self._round = None
            self._outcome = None
            return
        self._next_token += 1
        token = self._next_token
        quiesce = self._attempt_quiesce(attempt)
        expected = frozenset(deployment.network.compliant_isps())
        round_ = _Round(token=token, attempt=attempt, expected=expected)
        self._round = round_
        self._outcome.attempts = attempt
        self._trace_round(attempt, "start")
        request = ChaosSnapshotRequest(token=token, quiesce=quiesce)
        for isp_id in sorted(expected):
            deployment.send_control("bank", f"isp{isp_id}", request)
        timeout = ROUND_TIMEOUT + quiesce * len(expected)
        round_.timeout_handle = deployment.engine.schedule_after(
            timeout,
            lambda: self._on_round_timeout(token),
            label="chaos-snapshot-timeout",
        )

    # -- ISP side ----------------------------------------------------------------

    def on_request(self, isp_id: int, request: ChaosSnapshotRequest) -> None:
        """An ISP received a (possibly stale) snapshot request."""
        deployment = self.deployment
        isp = deployment.network.isps[isp_id]
        if not isinstance(isp, CompliantISP):
            return
        if isp.snapshot_open:
            # A stale attempt left this ISP paused; replace it.
            self.aborted_attempts += 1
            deployment.route_receipts(isp.abort_snapshot())
        isp.begin_snapshot(request.token)
        self._open_tokens[isp_id] = request.token
        deployment.engine.schedule_after(
            request.quiesce,
            lambda: self._send_peek(isp_id, request.token),
            label="chaos-snapshot-peek",
        )
        deployment.engine.schedule_after(
            ORPHAN_TIMEOUT,
            lambda: self._orphan_check(isp_id, request.token),
            label="chaos-snapshot-orphan",
        )

    def _snapshot_still_open(self, isp_id: int, token: int) -> CompliantISP | None:
        """The ISP object iff its open snapshot still belongs to ``token``.

        Looked up fresh through the deployment so a crash/restart swap is
        seen: a restarted ISP lost its (volatile) snapshot pause, and a
        crashed one must not be touched.
        """
        deployment = self.deployment
        if deployment.net.is_down(f"isp{isp_id}"):
            return None
        isp = deployment.network.isps[isp_id]
        if not isinstance(isp, CompliantISP) or not isp.snapshot_open:
            return None
        if self._open_tokens.get(isp_id) != token:
            return None
        return isp

    def _send_peek(self, isp_id: int, token: int) -> None:
        isp = self._snapshot_still_open(isp_id, token)
        if isp is None:
            return
        reply = ChaosSnapshotReply(
            token=token, isp_id=isp_id, credit=isp.snapshot_peek()
        )
        self.deployment.send_control(f"isp{isp_id}", "bank", reply)

    def _orphan_check(self, isp_id: int, token: int) -> None:
        isp = self._snapshot_still_open(isp_id, token)
        if isp is None:
            return
        # The coordinator went silent (bank crash, lost commit): release
        # the pause locally so the ISP does not stay muzzled forever.
        self.orphan_aborts += 1
        self._open_tokens.pop(isp_id, None)
        self.deployment.route_receipts(isp.abort_snapshot())

    def on_abort(self, isp_id: int, abort: SnapshotAbort) -> None:
        """An ISP received an abort for a (possibly already gone) attempt."""
        isp = self._snapshot_still_open(isp_id, abort.token)
        if isp is None:
            return
        self._open_tokens.pop(isp_id, None)
        self.deployment.route_receipts(isp.abort_snapshot())

    # -- bank side ----------------------------------------------------------------

    def on_reply(self, reply: ChaosSnapshotReply) -> None:
        """The bank received one ISP's peek."""
        round_ = self._round
        if round_ is None or reply.token != round_.token:
            return  # stale attempt
        round_.peeks[reply.isp_id] = dict(reply.credit)
        if set(round_.peeks) >= round_.expected:
            self._conclude_attempt()

    def _conclude_attempt(self) -> None:
        deployment = self.deployment
        round_ = self._round
        assert round_ is not None and self._outcome is not None
        inconsistent = verify_credit_matrix(round_.peeks)
        commit_ready = not inconsistent and all(
            self._snapshot_still_open(isp_id, round_.token) is not None
            for isp_id in round_.expected
        )
        if not commit_ready:
            self._abort_attempt()
            return
        if round_.timeout_handle is not None:
            round_.timeout_handle.cancel()
        # Atomic commit: every reply, resume and the bank's reconcile run
        # in this single engine callback, so no mail can interleave with
        # the credit resets and the invariant monitor never sees a
        # half-committed cut. (Models a commit barrier.)
        replies: dict[int, dict[int, int]] = {}
        for isp_id in sorted(round_.expected):
            isp = deployment.network.isps[isp_id]
            assert isinstance(isp, CompliantISP)
            replies[isp_id] = isp.snapshot_reply()
            self._open_tokens.pop(isp_id, None)
            deployment.route_receipts(isp.resume_sending())
        report = deployment.network.bank.reconcile(replies)
        deployment.network.last_report = report
        self._trace_round(round_.attempt, "commit")
        self._outcome.committed = True
        self._outcome.report = report
        self._outcome.finished_at = deployment.engine.now
        self._round = None
        self._outcome = None

    def _abort_attempt(self) -> None:
        deployment = self.deployment
        round_ = self._round
        assert round_ is not None
        if round_.timeout_handle is not None:
            round_.timeout_handle.cancel()
        self.aborted_attempts += 1
        self._trace_round(round_.attempt, "abort")
        abort = SnapshotAbort(token=round_.token)
        for isp_id in sorted(round_.expected):
            deployment.send_control("bank", f"isp{isp_id}", abort)
        attempt = round_.attempt
        self._round = None
        deployment.engine.schedule_after(
            RETRY_DELAY,
            lambda: self._retry(attempt + 1),
            label="chaos-snapshot-retry",
        )

    def _retry(self, attempt: int) -> None:
        if self._outcome is None or self._round is not None:
            return  # round was interrupted (e.g. bank crash) meanwhile
        if self.deployment.net.is_down("bank"):
            self._outcome.interrupted = True
            self._outcome.finished_at = self.deployment.engine.now
            self._outcome = None
            return
        self._begin_attempt(attempt)

    def _on_round_timeout(self, token: int) -> None:
        round_ = self._round
        if round_ is None or round_.token != token:
            return
        self._abort_attempt()

    # -- crash notifications --------------------------------------------------------

    def on_isp_crash(self, isp_id: int) -> None:
        """An ISP crashed: its open snapshot (volatile state) is gone."""
        self._open_tokens.pop(isp_id, None)

    def on_bank_crash(self) -> None:
        """The bank crashed: the in-progress round is volatile state, lost."""
        round_ = self._round
        if round_ is not None:
            if round_.timeout_handle is not None:
                round_.timeout_handle.cancel()
            self._round = None
        if self._outcome is not None:
            self._outcome.interrupted = True
            self._outcome.finished_at = self.deployment.engine.now
            self._outcome = None
        # Paused ISPs are released by their own orphan timeouts.
