"""Per-record state codecs for Zmail deployments.

An ISP's ledger and credit arrays, the bank's accounts and the users'
purses *are* the money. This module maps each piece of durable state to
a plain JSON-compatible dict and back, preserving every balance,
counter and compliance flag:

* :func:`user_state` / :func:`load_user_state` — one user's purse;
* :func:`isp_aggregate_state` / :func:`load_isp_aggregate_state` — an
  ISP's per-user-independent state, and :func:`isp_state` /
  :func:`load_isp_state` — the aggregate plus every user;
* :func:`bank_state` / :func:`load_bank_state` — the bank ledger;
* :func:`config_state` / :func:`config_from_state` — the config.

The durable store (:mod:`repro.store`) is the only writer and reader of
these fragments: its service barriers, a crashed chaos node's state and
a cluster shard's barrier record are all store rows. A crash loses
everything volatile (open snapshot pauses, buffered outboxes, in-flight
wire frames) and a restart rebuilds the node from exactly this state.

All loaders reject malformed input with
:class:`~repro.errors.SimulationError` — a truncated or corrupted
fragment must fail loudly and descriptively, never with a raw
``KeyError``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..errors import SimulationError
from .bank import Bank
from .config import NonCompliantMailPolicy, ZmailConfig
from .isp import CompliantISP, DeliveryStats

__all__ = [
    "config_state",
    "config_from_state",
    "user_state",
    "load_user_state",
    "isp_state",
    "load_isp_state",
    "isp_aggregate_state",
    "load_isp_aggregate_state",
    "bank_state",
    "load_bank_state",
    "FORMAT_VERSION",
]

# v2: limit_warning_log event list -> limit_hits counters
# v3: per-ISP delivery stats and limit-hit counters are persisted (a
#     restore no longer silently zeroes them), and ISP state is factored
#     into aggregate + per-user fragments so the durable store
#     (:mod:`repro.store`) can persist exactly the dirty subset.
# v4: the store's network record carries the last midnight applied and
#     each ISP's bank-trade nonce counter.
FORMAT_VERSION = 4


def user_state(user) -> dict[str, Any]:
    """One user's durable state (purse, limits, counters, mailboxes)."""
    return {
        "account": user.account,
        "balance": user.balance,
        "daily_limit": user.daily_limit,
        "sent_today": user.sent_today,
        "lifetime_sent": user.lifetime_sent,
        "lifetime_received": user.lifetime_received,
        "lifetime_received_paid": user.lifetime_received_paid,
        "limit_warnings": user.limit_warnings,
        "inbox": user.inbox,
        "junk_folder": user.junk_folder,
    }


def load_user_state(user, state: dict[str, Any]) -> None:
    """Restore a :func:`user_state` fragment onto ``user`` in place.

    Raises:
        SimulationError: if the fragment is malformed.
    """
    try:
        user.account = state["account"]
        user.balance = state["balance"]
        user.daily_limit = state["daily_limit"]
        user.sent_today = state["sent_today"]
        user.lifetime_sent = state["lifetime_sent"]
        user.lifetime_received = state["lifetime_received"]
        user.lifetime_received_paid = state["lifetime_received_paid"]
        user.limit_warnings = state["limit_warnings"]
        user.inbox = state["inbox"]
        user.junk_folder = state["junk_folder"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(
            f"malformed user state: {type(exc).__name__}: {exc}"
        ) from exc


def config_state(config: ZmailConfig) -> dict[str, Any]:
    """Serialise a :class:`ZmailConfig` to a JSON-compatible dict."""
    return {
        "default_daily_limit": config.default_daily_limit,
        "default_user_balance": config.default_user_balance,
        "default_user_account": config.default_user_account,
        "initial_pool": config.initial_pool,
        "minavail": config.minavail,
        "maxavail": config.maxavail,
        "initial_bank_account": config.initial_bank_account,
        "snapshot_quiesce_seconds": config.snapshot_quiesce_seconds,
        "reconciliation_period": config.reconciliation_period,
        "noncompliant_policy": config.noncompliant_policy.value,
        "auto_topup_amount": config.auto_topup_amount,
        "use_crypto": config.use_crypto,
    }


def config_from_state(state: dict[str, Any]) -> ZmailConfig:
    """Rebuild a :class:`ZmailConfig` from :func:`config_state` output.

    Raises:
        SimulationError: if the state is malformed.
    """
    try:
        return ZmailConfig(
            default_daily_limit=state["default_daily_limit"],
            default_user_balance=state["default_user_balance"],
            default_user_account=state["default_user_account"],
            initial_pool=state["initial_pool"],
            minavail=state["minavail"],
            maxavail=state["maxavail"],
            initial_bank_account=state["initial_bank_account"],
            snapshot_quiesce_seconds=state["snapshot_quiesce_seconds"],
            reconciliation_period=state["reconciliation_period"],
            noncompliant_policy=NonCompliantMailPolicy(
                state["noncompliant_policy"]
            ),
            auto_topup_amount=state["auto_topup_amount"],
            use_crypto=state["use_crypto"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(
            f"malformed config state: {type(exc).__name__}: {exc}"
        ) from exc


# -- per-node journals (crash/restart) -----------------------------------------------


def isp_aggregate_state(isp: CompliantISP) -> dict[str, Any]:
    """The per-user-independent slice of an ISP's durable state.

    Everything in :func:`isp_state` except the ``users`` map: pool, cash,
    credit array, compliance directory, delivery stats and the per-user
    limit-hit counters (small — only zombies accumulate entries). The
    durable store persists this fragment every barrier (O(n_isps)) and
    per-user fragments only when dirty.
    """
    return {
        "isp_id": isp.isp_id,
        "pool": isp.ledger.pool,
        "cash": isp.ledger.cash,
        "credit": {str(k): v for k, v in sorted(isp.credit.items())},
        "compliance_view": {
            str(k): v for k, v in sorted(isp.compliance_view.items())
        },
        "stats": dataclasses.asdict(isp.stats),
        "limit_hits": {
            str(user_id): count
            for user_id, count in sorted(isp.limit_hits.items())
        },
    }


def load_isp_aggregate_state(isp: CompliantISP, state: dict[str, Any]) -> None:
    """Restore an :func:`isp_aggregate_state` fragment onto ``isp`` in place.

    Raises:
        SimulationError: if the fragment is malformed.
    """
    try:
        isp.ledger.pool = state["pool"]
        isp.ledger.cash = state["cash"]
        isp.credit = {int(k): v for k, v in state["credit"].items()}
        isp.compliance_view = {
            int(k): bool(v) for k, v in state["compliance_view"].items()
        }
        isp.stats = DeliveryStats(**state["stats"])
        isp.limit_hits = {
            int(user_id): int(count)
            for user_id, count in state["limit_hits"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(
            f"malformed ISP journal aggregate: {type(exc).__name__}: {exc}"
        ) from exc


def isp_state(isp: CompliantISP) -> dict[str, Any]:
    """One compliant ISP's durable state (its write-ahead journal).

    Covers the ledger (pool, cash, every user purse), the inter-ISP
    credit array, the installed compliance directory, delivery stats and
    the zombie-detection per-user limit-hit counters. Volatile state — an open snapshot
    pause, the buffered outbox — is deliberately absent: a crash loses it.
    """
    state = isp_aggregate_state(isp)
    state["users"] = {
        str(user.user_id): user_state(user) for user in isp.ledger.users()
    }
    return state


def load_isp_state(isp: CompliantISP, state: dict[str, Any]) -> None:
    """Restore a journal written by :func:`isp_state` onto ``isp`` in place.

    The target is typically a freshly constructed :class:`CompliantISP`
    (same id / user count / config) standing in for the restarted
    process; its volatile state starts empty, exactly as after a crash.

    Raises:
        SimulationError: if the journal is malformed.
    """
    load_isp_aggregate_state(isp, state)
    try:
        for user_key, fragment in state["users"].items():
            load_user_state(isp.ledger.user(int(user_key)), fragment)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(
            f"malformed ISP journal: {type(exc).__name__}: {exc}"
        ) from exc


def bank_state(bank: Bank) -> dict[str, Any]:
    """The bank's durable state (see :meth:`~repro.core.bank.Bank.state_dict`)."""
    return bank.state_dict()


def load_bank_state(bank: Bank, state: dict[str, Any]) -> None:
    """Restore a journal written by :func:`bank_state` onto ``bank`` in place.

    Raises:
        SimulationError: if the journal is malformed.
    """
    try:
        bank.load_state(state)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(
            f"malformed bank journal: {type(exc).__name__}: {exc}"
        ) from exc
