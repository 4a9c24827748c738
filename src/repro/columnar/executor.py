"""The columnar batch executor: vectorized direct-mode scenario runs.

``run_columnar`` drives a :class:`~repro.core.scenario.Scenario` through
the same protocol decisions as the direct executor, but applies them as
masked numpy operations over :class:`~repro.columnar.state.ColumnarState`
instead of per-message method calls. Each time-sorted
:class:`~repro.columnar.plan.ChunkPlan` is cut at protocol boundaries
(reconciliation cuts, midnight rollovers) and each boundary-free
sub-batch is partitioned into four exact-equivalence classes:

* **unpaid**: §5 incremental deployment — messages whose sender's or
  recipient's ISP is non-compliant. They move no ledger and check no
  limit or balance; the outcome depends only on the receiver (a
  compliant one applies its ``noncompliant_policy``: deliver, or filter
  with no filter installed, to the inbox; segregate to the junk folder;
  discard drops it). Applied with ``bincount`` before the other classes
  are drawn, and left out of the send counts they are drawn from.
* **blocked-limit**: messages whose sender is already at the daily limit
  when the sub-batch starts. Blocked sends never advance ``sent_today``,
  so the sender stays at the limit for the whole sub-batch and every one
  of its messages blocks — pure counter arithmetic, applied with
  ``bincount``.
* **safe**: the sender starts with ``balance >= its send count`` and
  ``sent_today + count <= limit``, and the recipient is not *contended*
  (below). Every interleaving of such sends succeeds with the same
  per-message outcome, and all mutations are additive (debits, credits,
  counters, the antisymmetric credit matrix), so the whole class is
  order-independent and applied as scatter-adds.
* **contended residual**: everything else — senders that may run out of
  balance or hit the limit mid-batch (where auto top-up draws on the
  shared pool, and outcomes depend on interleaving), plus safe-sender
  messages whose *recipient* is contended (its incoming credits must
  land between its own sends in true order). Replayed one message at a
  time, in original arrival order, on plain Python lists gathered from
  the arrays for only the residual's users and scattered back once.

Correctness rests on the classes being exact, not heuristic: the safe
class provably cannot interact with the residual's outcomes, so
vector-then-scalar application is equivalent to the fully ordered run.
The cross-mode tests and the macro benchmark assert the resulting
accounting digests are byte-identical to direct mode at every
reconciliation cut.

With a tracer enabled, a per-sub-batch emission pass records the
``topup``/``send``/``deliver`` events; tracing changes no outcome. A
line-sink tracer gets them replayed in original message order with the
direct-mode clock, so even the *ordered* event stream matches direct
mode byte for byte (asserted in tests). A counting tracer (see
:mod:`repro.obs.trace`) gets them as packed int64 keys in run-level
arrays, one key per message and per top-up, compacted to distinct keys
and their counts and handed over only when the tracer drains.
"""

from __future__ import annotations

from ..core.config import NonCompliantMailPolicy
from ..core.protocol import deliver_event, send_event, topup_event
from ..obs.manifest import accounting_digest
from ..sim.clock import DAY
from ..sim.rng import SeededStreams
from .plan import KIND_ORDER, merge_column_streams
from .state import USER_COLUMNS, ColumnarState

__all__ = ["run_columnar"]

# Per-message outcome codes (uint8), indexing _STATUS_VALUES.
_DELIVERED_LOCAL = 0
_SENT_PAID = 1
_BLOCKED_BALANCE = 2
_BLOCKED_LIMIT = 3
_SENT_UNPAID = 4
_SENT_UNPAID_DISCARDED = 5
_STATUS_VALUES = (
    "delivered_local",
    "sent_paid",
    "blocked_balance",
    "blocked_limit",
    "sent_unpaid",
    "sent_unpaid",
)
#: The ``ok`` of the ``deliver`` event that follows each outcome's
#: ``send``; outcomes absent here deliver no letter.
_DELIVER_OK = {
    _SENT_PAID: True,
    _SENT_UNPAID: True,
    _SENT_UNPAID_DISCARDED: False,
}
_N_OUTCOMES = len(_STATUS_VALUES)
_KIND_VALUES = tuple(kind.value for kind in KIND_ORDER)
_N_KINDS = len(_KIND_VALUES)


def run_columnar(scenario):
    """Execute ``scenario`` with the columnar batch executor."""
    import numpy as np

    network, monitor = scenario._deploy()
    streams = SeededStreams(scenario.seed)
    chunks = merge_column_streams(scenario.workload_column_streams(streams))

    state = ColumnarState(network)
    tracer = network.tracer
    tally = None
    if tracer.enabled and tracer.counts is not None:
        tally = _LedgerTally(np, network)
        tracer.add_tally(tally.fold)
    period = scenario.reconcile_every
    next_reconcile = period if period > 0 else None
    reconciliations = []
    cut_digests = []
    attempted = 0

    def boundary_reconcile():
        nonlocal next_reconcile
        state.spill()
        reconciliations.append(network.reconcile("direct"))
        cut_digests.append(accounting_digest(network))
        state.refresh()
        next_reconcile += period

    for chunk in chunks:
        times = chunk.times
        pos, n = 0, len(times)
        while pos < n:
            t_pos = float(times[pos])
            if next_reconcile is not None and t_pos >= next_reconcile:
                boundary_reconcile()
            if int(t_pos // DAY) > network._last_day_seen:
                state.spill()
                network.note_time(t_pos)
                state.refresh()
            limit_t = np.inf if next_reconcile is None else next_reconcile
            next_midnight = (network._last_day_seen + 1) * DAY
            if next_midnight < limit_t:
                limit_t = next_midnight
            end = pos + 1 + int(
                np.searchsorted(times[pos + 1 :], limit_t, side="left")
            )
            traced = _execute_batch(np, network, state, tracer, chunk, pos, end)
            if traced is not None:
                _emit_batch(
                    network, tracer, tally, chunk, pos, end, *traced,
                    state.users_per_isp,
                )
            attempted += end - pos
            pos = end

    state.spill()
    network.note_time(scenario.duration)
    reconciliations.append(network.reconcile("direct"))
    cut_digests.append(accounting_digest(network))
    monitor.poll()
    result = scenario._collect(network, monitor, attempted, reconciliations)
    result.cut_digests = cut_digests
    return result


def _execute_batch(np, network, state, tracer, chunk, pos, end):
    """Apply one boundary-free sub-batch to the arrays.

    Returns the messages' outcome codes and top-up amounts when
    ``tracer`` is enabled (for :func:`_emit_batch`), else ``None``.
    """
    senders = chunk.senders[pos:end]
    recipients = chunk.recipients[pos:end]
    kinds = chunk.kinds[pos:end]
    n_users = state.n_users
    upi = state.users_per_isp

    # Traced runs only: each message's outcome and top-up, for emission.
    traced = tracer.enabled
    status = np.empty(end - pos, dtype=np.uint8) if traced else None
    topups = np.zeros(end - pos, dtype=np.int64) if traced else None

    # -- unpaid class: no ledger, applied first and left out of the rest ----
    paid = None
    if state.unpaid_user is not None:
        unpaid = state.unpaid_user[senders] | state.unpaid_user[recipients]
        if unpaid.any():
            _apply_unpaid(
                np, network, state, senders, recipients, kinds, unpaid, status
            )
            paid = ~unpaid

    # -- classification (all decisions from sub-batch start state) ----------
    send_count = np.bincount(
        senders if paid is None else senders[paid], minlength=n_users
    )
    at_limit = state.sent_today >= state.daily_limit
    contended = (
        ~at_limit
        & (send_count > 0)
        & (
            (state.balance < send_count)
            | (state.sent_today + send_count > state.daily_limit)
        )
    )
    msg_at_limit = at_limit[senders]
    msg_scalar = ~msg_at_limit & (contended[senders] | contended[recipients])
    msg_safe = ~msg_at_limit & ~msg_scalar
    if paid is not None:
        msg_at_limit &= paid
        msg_scalar &= paid
        msg_safe &= paid

    # -- blocked-limit class: counters only ---------------------------------
    if msg_at_limit.any():
        lim_senders = senders[msg_at_limit]
        per_user = np.bincount(lim_senders, minlength=n_users)
        state.limit_warnings += per_user
        state.limit_hits += per_user
        state.stats_blocked_limit += np.bincount(
            lim_senders // upi, minlength=state.n_isps
        )
        state.bump_metric("send.blocked_limit", int(len(lim_senders)))
        _bump_kind_metrics(np, state, "send.kind.", kinds[msg_at_limit])
        if traced:
            status[msg_at_limit] = _BLOCKED_LIMIT

    # -- safe class: scatter-applied debits/credits -------------------------
    if msg_safe.any():
        safe_s = senders[msg_safe]
        safe_r = recipients[msg_safe]
        safe_k = kinds[msg_safe]
        sent = np.bincount(safe_s, minlength=n_users)
        received = np.bincount(safe_r, minlength=n_users)
        state.balance += received
        state.balance -= sent
        state.sent_today += sent
        state.lifetime_sent += sent
        state.lifetime_received += received
        state.lifetime_received_paid += received
        state.inbox += received
        src_isp = safe_s // upi
        dst_isp = safe_r // upi
        _book_deliveries(
            np,
            state,
            np.bincount(
                (src_isp * state.n_isps + dst_isp) * _N_KINDS + safe_k,
                minlength=state.n_isps * state.n_isps * _N_KINDS,
            ),
        )
        _bump_kind_metrics(np, state, "send.kind.", safe_k)
        if traced:
            status[msg_safe] = np.where(
                src_isp == dst_isp, _DELIVERED_LOCAL, _SENT_PAID
            )

    # -- contended residual: exact per-message replay in arrival order ------
    if msg_scalar.any():
        _run_scalar(
            np, network, state, senders, recipients, kinds, msg_scalar,
            status, topups,
        )

    return (status, topups) if traced else None


def _apply_unpaid(
    np, network, state, senders, recipients, kinds, mask, status
):
    """Apply the unpaid (§5) messages under ``mask``: counters only.

    Mirrors ``NonCompliantISP`` and ``CompliantISP``'s non-compliant
    branches: a non-compliant ISP's own mail is a local delivery; any
    other unpaid message books ``sent_unpaid`` at its sender's ISP and
    then one delivery. A non-compliant receiver takes everything; a
    compliant one applies ``noncompliant_policy`` (no spam filter is
    installed on a scenario's ISPs, so FILTER delivers like DELIVER).
    """
    n_isps, upi = state.n_isps, state.users_per_isp
    recipients, kinds = recipients[mask], kinds[mask]
    src_isp = senders[mask] // upi
    dst_isp = recipients // upi
    local = src_isp == dst_isp
    remote = ~local
    state.stats_delivered_local += np.bincount(
        src_isp[local], minlength=n_isps
    )
    state.stats_sent_unpaid += np.bincount(src_isp[remote], minlength=n_isps)
    state.bump_metric("send.delivered_local", int(local.sum()))
    state.bump_metric("send.sent_unpaid", int(remote.sum()))
    _bump_kind_metrics(np, state, "send.kind.", kinds)

    # A compliant receiver (the sender is then non-compliant) applies the
    # policy; a non-compliant one accepts everything.
    at_compliant = remote & ~state.unpaid_user[recipients]
    policy = network.config.noncompliant_policy
    if policy is NonCompliantMailPolicy.DISCARD:
        dropped = at_compliant
        state.stats_discarded += np.bincount(
            dst_isp[dropped], minlength=n_isps
        )
    else:
        dropped = np.zeros_like(at_compliant)
        received = np.bincount(
            recipients[at_compliant], minlength=state.n_users
        )
        state.lifetime_received += received
        if policy is NonCompliantMailPolicy.SEGREGATE:
            state.junk_folder += received
            state.stats_junked += np.bincount(
                dst_isp[at_compliant], minlength=n_isps
            )
        else:
            state.inbox += received
    accepted = remote & ~dropped
    state.stats_received_unpaid += np.bincount(
        dst_isp[accepted], minlength=n_isps
    )
    state.bump_metric("deliver.delivered", int(accepted.sum()))
    state.bump_metric("deliver.dropped", int(dropped.sum()))
    _bump_kind_metrics(np, state, "deliver.kind.", kinds[accepted])
    if status is not None:
        status[mask] = np.where(
            local,
            _DELIVERED_LOCAL,
            np.where(dropped, _SENT_UNPAID_DISCARDED, _SENT_UNPAID),
        )


def _run_scalar(
    np, network, state, senders, recipients, kinds, mask, status, topups
):
    """Replay contended messages one at a time, in arrival order.

    Mirrors ``CompliantISP._submit_now`` + ``ZmailNetwork``'s auto top-up
    retry exactly, including the ISP-stats double count: a transient
    balance block books ``stats.blocked_balance`` *and* the retried
    outcome, while network metrics only see the final status.

    The loop touches only plain Python lists and ints. The columns of the
    residual's own users are gathered into lists indexed by local id
    (the user's rank among them) and scattered back once, so the cost is
    O(residual), not O(population).
    """
    _bump_kind_metrics(np, state, "send.kind.", kinds[mask])
    kind_list = kinds[mask].tolist()
    # The residual's users, sorted and deduplicated in place (np.unique
    # would hold several residual-sized index arrays at once).
    users = np.concatenate((senders[mask], recipients[mask]))
    users.sort()
    users = users[np.append(True, users[1:] != users[:-1])]
    local_s = np.searchsorted(users, senders[mask]).tolist()
    local_r = np.searchsorted(users, recipients[mask]).tolist()
    isp_of = (users // state.users_per_isp).tolist()
    # Unpacked in USER_COLUMNS order; scattered back by the same table.
    columns = [getattr(state, name)[users].tolist() for name in USER_COLUMNS]
    (account, balance, daily_limit, sent_today, lifetime_sent,
     lifetime_received, lifetime_received_paid, limit_warnings, inbox,
     limit_hits) = columns
    n_isps = state.n_isps
    pool = state.pool.tolist()
    cash = state.cash.tolist()
    blocked_balance = [0] * n_isps
    blocked_limit = [0] * n_isps
    delivered = [0] * (n_isps * n_isps * _N_KINDS)
    auto_topup = network.config.auto_topup_amount
    refused = topup_count = topup_epennies = 0
    # Traced runs only: per-message outcomes and top-up amounts, in order.
    outcomes = [] if status is not None else None
    amounts = [0] * len(kind_list) if status is not None else None

    for s, r, k in zip(local_s, local_r, kind_list):
        isp_s = isp_of[s]
        if sent_today[s] >= daily_limit[s]:
            limit_warnings[s] += 1
            limit_hits[s] += 1
            blocked_limit[isp_s] += 1
            outcome = _BLOCKED_LIMIT
        else:
            if balance[s] < 1:
                blocked_balance[isp_s] += 1
                amount = min(auto_topup, account[s], pool[isp_s])
                if amount > 0:
                    account[s] -= amount
                    cash[isp_s] += amount
                    balance[s] += amount
                    pool[isp_s] -= amount
                    topup_count += 1
                    topup_epennies += amount
                    if outcomes is not None:
                        # len(outcomes) is this message's residual slot.
                        amounts[len(outcomes)] = amount
            if balance[s] < 1:
                refused += 1
                outcome = _BLOCKED_BALANCE
            else:
                balance[s] -= 1
                sent_today[s] += 1
                lifetime_sent[s] += 1
                balance[r] += 1
                lifetime_received[r] += 1
                lifetime_received_paid[r] += 1
                inbox[r] += 1
                isp_r = isp_of[r]
                delivered[(isp_s * n_isps + isp_r) * _N_KINDS + k] += 1
                outcome = _DELIVERED_LOCAL if isp_s == isp_r else _SENT_PAID
        if outcomes is not None:
            outcomes.append(outcome)

    for name, values in zip(USER_COLUMNS, columns):
        getattr(state, name)[users] = values
    state.pool[:] = pool
    state.cash[:] = cash
    state.stats_blocked_balance += blocked_balance
    state.stats_blocked_limit += blocked_limit
    _book_deliveries(np, state, np.array(delivered, dtype=np.int64))
    if outcomes is not None:
        status[mask] = outcomes
        topups[mask] = amounts
    state.bump_metric("send.blocked_limit", sum(blocked_limit))
    state.bump_metric("send.blocked_balance", refused)
    state.bump_metric("topup.count", topup_count)
    state.bump_metric("topup.epennies", topup_epennies)


def _book_deliveries(np, state, counts):
    """Book delivered sends counted per (sender ISP, recipient ISP, kind).

    ``counts`` is flat over ``(src * n_isps + dst) * n_kinds + kind``. The
    ``src == dst`` diagonal holds local deliveries; every other cell is a
    paid remote send, which moves inter-ISP credit and marks the pair's
    credit keys as existing even when they net to zero.
    """
    by_kind = counts.reshape(state.n_isps, state.n_isps, _N_KINDS)
    local = by_kind.diagonal()  # (kind, isp)
    pairs = by_kind.sum(axis=2)
    np.fill_diagonal(pairs, 0)
    state.stats_delivered_local += local.sum(axis=0)
    state.stats_sent_paid += pairs.sum(axis=1)
    state.stats_received_paid += pairs.sum(axis=0)
    state.credit += pairs
    state.credit -= pairs.T
    traded = pairs > 0
    state.touched |= traded
    state.touched |= traded.T
    n_remote = int(pairs.sum())
    state.bump_metric("send.delivered_local", int(local.sum()))
    state.bump_metric("send.sent_paid", n_remote)
    state.bump_metric("deliver.delivered", n_remote)
    remote = by_kind.sum(axis=(0, 1)) - local.sum(axis=1)
    for code, count in enumerate(remote.tolist()):
        state.bump_metric(f"deliver.kind.{_KIND_VALUES[code]}", count)


def _bump_kind_metrics(np, state, prefix, kind_codes):
    counts = np.bincount(kind_codes, minlength=_N_KINDS)
    for code, count in enumerate(counts.tolist()):
        state.bump_metric(f"{prefix}{_KIND_VALUES[code]}", count)


def _emit_batch(network, tracer, tally, chunk, pos, end, status, topups, upi):
    """Traced runs: record the sub-batch's ledger events.

    With a ``tally`` (a counting tracer) the sub-batch becomes packed
    keys in the run's arrays. Otherwise each event is emitted in original
    order at its message's time, for the line sinks whose bytes are the
    trace contract.
    """
    if tally is not None:
        tally.add(
            chunk.senders[pos:end], chunk.recipients[pos:end],
            chunk.kinds[pos:end], status, topups,
        )
        return
    record = tracer.record
    for t, s, r, k, outcome, amount in zip(
        chunk.times[pos:end].tolist(),
        chunk.senders[pos:end].tolist(),
        chunk.recipients[pos:end].tolist(),
        chunk.kinds[pos:end].tolist(),
        status.tolist(),
        topups.tolist(),
    ):
        network._direct_now = t
        if amount > 0:
            record(topup_event, s // upi, s % upi, amount)
        for key in _message_events(s, r, k, outcome, upi):
            record(*key)


def _message_events(s, r, k, outcome, upi):
    """One message's ``send`` event and, if it delivers, its ``deliver``,
    as :meth:`~repro.obs.trace.TraceRecorder.record` arguments."""
    kind_value = _KIND_VALUES[k]
    src_isp, src_user, dst_isp, dst_user = s // upi, s % upi, r // upi, r % upi
    events = [(
        send_event, src_isp, src_user, dst_isp, dst_user, kind_value,
        _STATUS_VALUES[outcome],
    )]
    ok = _DELIVER_OK.get(outcome)
    if ok is not None:
        events.append((
            deliver_event, src_isp, src_user, dst_isp, dst_user, kind_value,
            ok,
        ))
    return events


class _LedgerTally:
    """A counting tracer's ledger events of one columnar run, packed.

    A message is one key, ``((sender * n_users + recipient) * n_kinds +
    kind) * n_outcomes + outcome`` (non-negative); its ``deliver`` event
    follows from the outcome (``_DELIVER_OK``). A top-up is one negative
    key, ``-1 - (sender * (top + 1) + amount)``, where ``top`` is the
    auto top-up amount that bounds every ``amount``. Keys are appended
    per sub-batch; past :attr:`HELD_CAP` held keys (or as many as there
    are distinct keys) they are compacted to sorted distinct keys and
    their counts, so memory stays O(distinct events), not O(events).
    """

    #: Raw keys held before a compaction.
    HELD_CAP = 1 << 16

    def __init__(self, np, network) -> None:
        self._np = np
        self._upi = network.users_per_isp
        self._n_users = network.n_isps * self._upi
        self._top = network.config.auto_topup_amount + 1
        self._held: list = []  # raw key arrays since the last compaction
        self._n_held = 0
        self._keys = np.empty(0, dtype=np.int64)  # distinct, sorted
        self._counts = np.empty(0, dtype=np.int64)

    def add(self, senders, recipients, kinds, status, topups) -> None:
        np = self._np
        keys = senders.astype(np.int64) * self._n_users + recipients
        keys *= _N_KINDS
        keys += kinds
        keys *= _N_OUTCOMES
        keys += status
        self._held.append(keys)
        self._n_held += len(keys)
        paid = np.flatnonzero(topups)
        if len(paid):
            payer = senders[paid].astype(np.int64)
            self._held.append(-1 - (payer * self._top + topups[paid]))
            self._n_held += len(paid)
        if self._n_held >= max(self.HELD_CAP, len(self._keys)):
            self._compact()

    def _compact(self) -> None:
        np = self._np
        held = np.sort(np.concatenate(self._held))
        keys, counts = _distinct(np, held, None)
        if len(self._keys):
            keys = np.concatenate((self._keys, keys))
            order = np.argsort(keys, kind="stable")
            keys, counts = _distinct(
                np, keys[order], np.concatenate((self._counts, counts))[order]
            )
        self._keys, self._counts = keys, counts
        self._held = []
        self._n_held = 0

    def fold(self, counts: dict) -> None:
        """Add every held event to a tracer's count table; hold none."""
        if self._n_held:
            self._compact()
        keys, multiplicity = self._keys, self._counts
        if not len(keys):
            return
        np, upi = self._np, self._upi
        split = int(np.searchsorted(keys, 0))  # top-ups sort first
        topup = -1 - keys[:split]
        for code, n in zip(topup.tolist(), multiplicity[:split].tolist()):
            sender, amount = divmod(code, self._top)
            key = (topup_event, sender // upi, sender % upi, amount)
            counts[key] = counts.get(key, 0) + n
        rest, outcome = np.divmod(keys[split:], _N_OUTCOMES)
        pair, kind = np.divmod(rest, _N_KINDS)
        senders, recipients = np.divmod(pair, self._n_users)
        for s, r, k, o, n in zip(
            senders.tolist(), recipients.tolist(), kind.tolist(),
            outcome.tolist(), multiplicity[split:].tolist(),
        ):
            for key in _message_events(s, r, k, o, upi):
                counts[key] = counts.get(key, 0) + n
        self._keys = keys[:0]
        self._counts = multiplicity[:0]


def _distinct(np, keys, counts):
    """Sorted ``keys`` with their ``counts`` (``None``: each once), deduplicated."""
    starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    if counts is None:
        return keys[starts], np.diff(np.append(starts, len(keys)))
    return keys[starts], np.add.reduceat(counts, starts)

