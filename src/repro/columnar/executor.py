"""The columnar batch executor: vectorized direct-mode scenario runs.

``run_columnar`` drives a :class:`~repro.core.scenario.Scenario` through
the same protocol decisions as the direct executor, but applies them as
masked numpy operations over :class:`~repro.columnar.state.ColumnarState`
instead of per-message method calls. Each time-sorted
:class:`~repro.columnar.plan.ChunkPlan` is cut at protocol boundaries
(reconciliation cuts, midnight rollovers) and each boundary-free
sub-batch is partitioned into three exact-equivalence classes:

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

With a tracer enabled, a per-sub-batch emission pass replays the
``topup``/``send``/``deliver`` events in original message order with the
direct-mode clock, so even the *ordered* event stream matches direct
mode byte for byte (asserted in tests); tracing changes no outcome.
"""

from __future__ import annotations

from ..core.isp import CompliantISP
from ..errors import SimulationError
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
_STATUS_VALUES = (
    "delivered_local",
    "sent_paid",
    "blocked_balance",
    "blocked_limit",
)
_KIND_VALUES = tuple(kind.value for kind in KIND_ORDER)
_N_KINDS = len(_KIND_VALUES)


def run_columnar(scenario):
    """Execute ``scenario`` with the columnar batch executor."""
    import numpy as np

    network, monitor = scenario._deploy()
    if any(
        not isinstance(isp, CompliantISP) for isp in network.isps.values()
    ):
        raise SimulationError(
            "columnar mode requires an all-compliant deployment"
        )
    streams = SeededStreams(scenario.seed)
    chunks = merge_column_streams(scenario.workload_column_streams(streams))

    state = ColumnarState(network)
    tracer = network.tracer
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

    with network.spans.span("workload.batch"):
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
                _execute_batch(np, network, state, tracer, chunk, pos, end)
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
    """Apply one boundary-free sub-batch to the arrays."""
    senders = chunk.senders[pos:end]
    recipients = chunk.recipients[pos:end]
    kinds = chunk.kinds[pos:end]
    n_users = state.n_users
    upi = state.users_per_isp

    # -- classification (all decisions from sub-batch start state) ----------
    send_count = np.bincount(senders, minlength=n_users)
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

    # Traced runs only: each message's outcome and top-up, for emission.
    traced = tracer.enabled
    status = np.empty(end - pos, dtype=np.uint8) if traced else None
    topups = np.zeros(end - pos, dtype=np.int64) if traced else None

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

    if traced:
        _emit_batch(network, tracer, chunk, pos, end, status, topups, upi)


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


def _emit_batch(network, tracer, chunk, pos, end, status, topups, upi):
    """Traced runs: replay the sub-batch's events in original order."""
    emit = tracer.emit
    addresses = _address_strings(network)
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
            emit("topup", isp=s // upi, user=s % upi, amount=amount)
        kind_value = _KIND_VALUES[k]
        emit(
            "send",
            src=addresses[s],
            dst=addresses[r],
            kind=kind_value,
            status=_STATUS_VALUES[outcome],
        )
        if outcome == _SENT_PAID:
            emit(
                "deliver",
                src=addresses[s],
                dst=addresses[r],
                kind=kind_value,
                ok=True,
            )


def _address_strings(network):
    cache = getattr(network, "_columnar_addresses", None)
    if cache is None:
        upi = network.users_per_isp
        cache = [
            f"user{g % upi}@isp{g // upi}"
            for g in range(network.n_isps * upi)
        ]
        network._columnar_addresses = cache
    return cache
