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
  time, in original arrival order, directly against the arrays.

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
from .state import ColumnarState

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

    traced = tracer.enabled
    status = np.empty(end - pos, dtype=np.uint8) if traced else None
    topups = None

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
        local = src_isp == dst_isp
        n_local = int(local.sum())
        n_remote = len(safe_s) - n_local
        state.stats_delivered_local += np.bincount(
            src_isp[local], minlength=state.n_isps
        )
        if n_remote:
            remote_src = src_isp[~local]
            remote_dst = dst_isp[~local]
            state.stats_sent_paid += np.bincount(
                remote_src, minlength=state.n_isps
            )
            state.stats_received_paid += np.bincount(
                remote_dst, minlength=state.n_isps
            )
            pair_counts = np.bincount(
                remote_src * state.n_isps + remote_dst,
                minlength=state.n_isps * state.n_isps,
            ).reshape(state.n_isps, state.n_isps)
            state.credit += pair_counts
            state.credit -= pair_counts.T
            traded = pair_counts > 0
            state.touched |= traded
            state.touched |= traded.T
            state.bump_metric("deliver.delivered", n_remote)
            _bump_kind_metrics(
                np, state, "deliver.kind.", kinds[msg_safe][~local]
            )
        state.bump_metric("send.delivered_local", n_local)
        state.bump_metric("send.sent_paid", n_remote)
        _bump_kind_metrics(np, state, "send.kind.", kinds[msg_safe])
        if traced:
            status[msg_safe] = np.where(local, _DELIVERED_LOCAL, _SENT_PAID)

    # -- contended residual: exact per-message replay in arrival order ------
    if msg_scalar.any():
        topups = _run_scalar(
            np, network, state, senders, recipients, kinds, msg_scalar,
            status,
        )

    if traced:
        _emit_batch(
            network, tracer, chunk, pos, end, status, topups, msg_scalar, upi
        )


def _run_scalar(np, network, state, senders, recipients, kinds, mask, status):
    """Replay contended messages one at a time against the arrays.

    Mirrors ``CompliantISP._submit_now`` + ``ZmailNetwork``'s auto top-up
    retry exactly, including the ISP-stats double count: a transient
    balance block books ``stats.blocked_balance`` *and* the retried
    outcome, while network metrics only see the final status.
    """
    upi = state.users_per_isp
    auto_topup = network.config.auto_topup_amount
    balance = state.balance
    account = state.account
    sent_today = state.sent_today
    daily_limit = state.daily_limit
    indices = mask.nonzero()[0]
    topup_amounts = [0] * len(indices) if status is not None else None
    status_counts = [0, 0, 0, 0]
    kind_counts = [0] * len(_KIND_VALUES)
    deliver_kind_counts = [0] * len(_KIND_VALUES)
    delivered_remote = 0
    topup_count = 0
    topup_epennies = 0

    for slot, (s, r, k) in enumerate(
        zip(
            senders[mask].tolist(),
            recipients[mask].tolist(),
            kinds[mask].tolist(),
        )
    ):
        isp_s = s // upi
        if sent_today[s] >= daily_limit[s]:
            state.limit_warnings[s] += 1
            state.stats_blocked_limit[isp_s] += 1
            state.limit_hits[s] += 1
            outcome = _BLOCKED_LIMIT
        else:
            blocked = False
            if balance[s] < 1:
                state.stats_blocked_balance[isp_s] += 1
                amount = 0
                if auto_topup > 0:
                    amount = min(auto_topup, account[s], state.pool[isp_s])
                if amount > 0:
                    account[s] -= amount
                    state.cash[isp_s] += amount
                    balance[s] += amount
                    state.pool[isp_s] -= amount
                    topup_count += 1
                    topup_epennies += int(amount)
                    if topup_amounts is not None:
                        topup_amounts[slot] = int(amount)
                else:
                    blocked = True
                    outcome = _BLOCKED_BALANCE
            if not blocked:
                balance[s] -= 1
                sent_today[s] += 1
                state.lifetime_sent[s] += 1
                balance[r] += 1
                state.lifetime_received[r] += 1
                state.lifetime_received_paid[r] += 1
                state.inbox[r] += 1
                isp_r = r // upi
                if isp_s == isp_r:
                    state.stats_delivered_local[isp_s] += 1
                    outcome = _DELIVERED_LOCAL
                else:
                    state.stats_sent_paid[isp_s] += 1
                    state.stats_received_paid[isp_r] += 1
                    state.credit[isp_s, isp_r] += 1
                    state.credit[isp_r, isp_s] -= 1
                    state.touched[isp_s, isp_r] = True
                    state.touched[isp_r, isp_s] = True
                    delivered_remote += 1
                    deliver_kind_counts[k] += 1
                    outcome = _SENT_PAID
        status_counts[outcome] += 1
        kind_counts[k] += 1
        if status is not None:
            status[indices[slot]] = outcome

    for code, count in enumerate(status_counts):
        state.bump_metric(f"send.{_STATUS_VALUES[code]}", count)
    for code, count in enumerate(kind_counts):
        state.bump_metric(f"send.kind.{_KIND_VALUES[code]}", count)
    state.bump_metric("deliver.delivered", delivered_remote)
    for code, count in enumerate(deliver_kind_counts):
        state.bump_metric(f"deliver.kind.{_KIND_VALUES[code]}", count)
    state.bump_metric("topup.count", topup_count)
    state.bump_metric("topup.epennies", topup_epennies)
    return topup_amounts


def _bump_kind_metrics(np, state, prefix, kind_codes):
    counts = np.bincount(kind_codes, minlength=len(_KIND_VALUES))
    for code, count in enumerate(counts.tolist()):
        if count:
            state.bump_metric(f"{prefix}{_KIND_VALUES[code]}", count)


def _emit_batch(
    network, tracer, chunk, pos, end, status, topups, msg_scalar, upi
):
    """Traced runs: replay the sub-batch's events in original order."""
    emit = tracer.emit
    addresses = _address_strings(network)
    scalar_slot = {
        int(index): slot for slot, index in enumerate(msg_scalar.nonzero()[0])
    } if topups is not None else {}
    times = chunk.times[pos:end].tolist()
    senders = chunk.senders[pos:end].tolist()
    recipients = chunk.recipients[pos:end].tolist()
    kinds = chunk.kinds[pos:end].tolist()
    for index, (t, s, r, k) in enumerate(
        zip(times, senders, recipients, kinds)
    ):
        network._direct_now = t
        slot = scalar_slot.get(index)
        if slot is not None and topups[slot] > 0:
            emit("topup", isp=s // upi, user=s % upi, amount=topups[slot])
        outcome = int(status[index])
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
