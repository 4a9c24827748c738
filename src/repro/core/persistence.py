"""Per-record state codecs for Zmail deployments.

An ISP's ledger and credit arrays and the users' purses *are* the
money. This module declares each record kind of an ISP's durable state
once, as a :mod:`repro.records` table that its dumper and its loader
both walk: :data:`USER` (one purse), :data:`ISP_AGGREGATE` (the
per-user-independent state) and :data:`CONFIG`. The bank's table sits
beside :meth:`~repro.core.bank.Bank.state_dict`.

The durable store (:mod:`repro.store`) is the only writer and reader of
these records. A crash loses everything volatile (open snapshot pauses,
buffered outboxes, in-flight wire frames) and a restart rebuilds the
node from exactly this state. Every loader checks every value of a
record before it assigns any: a missing or extra key, a ``bool``, float
or string where an int belongs, or a negative counter, pool, balance
or account raises :class:`~repro.errors.SimulationError` naming the
record kind, its key and the field.
"""

from __future__ import annotations

from typing import Any

from .. import records
from ..errors import SimulationError
from ..records import Field, Map, Record
from .config import ZmailConfig
from .isp import CompliantISP, DeliveryStats
from .user import UserAccount

__all__ = [
    "USER",
    "ISP_AGGREGATE",
    "CONFIG",
    "config_state",
    "config_from_state",
    "user_state",
    "load_user_state",
    "isp_aggregate_state",
    "load_isp_aggregate_state",
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

#: Purses, limit and counters: every field an int >= 0. Dumped with a
#: ``getattr`` per field on every barrier commit (``asdict`` recurses
#: and deep-copies, ten times the cost for flat int fields).
USER = Record(*records.dataclass_fields(UserAccount, low=0, skip=("user_id",)))

#: Pool, cash, credit array, compliance directory, delivery stats and
#: the per-user limit-hit counters (small: only zombies collect any).
ISP_AGGREGATE = Record(
    Field("isp_id", int, 0),
    Field("pool", int, 0, attr="ledger.pool"),
    Field("cash", int, attr="ledger.cash"),
    Field("credit", Map(int)),
    Field("compliance_view", Map(bool)),
    Field("stats", Record(
        *records.dataclass_fields(DeliveryStats, low=0), cls=DeliveryStats
    )),
    Field("limit_hits", Map(int), 0),
)

CONFIG = Record(*records.dataclass_fields(ZmailConfig), cls=ZmailConfig)


def user_state(user: UserAccount) -> dict[str, Any]:
    """One user's durable state (purses, limits, counters)."""
    return records.dump(USER, user)


def load_user_state(isp: CompliantISP, user_id: int, state: Any) -> None:
    """Restore a :func:`user_state` record onto ``isp``'s user in place.

    Raises:
        SimulationError: if the record is malformed or names no user.
    """
    key = f"{isp.isp_id}:{user_id}"
    if user_id not in isp.ledger:
        raise SimulationError(f"malformed user state {key!r}: no such user")
    records.load_into(USER, isp.ledger.user(user_id), state, "user state", key)


def config_state(config: ZmailConfig) -> dict[str, Any]:
    """Serialise a :class:`ZmailConfig` to a JSON-compatible dict."""
    return records.dump(CONFIG, config)


def config_from_state(state: Any) -> ZmailConfig:
    """Rebuild a :class:`ZmailConfig` from :func:`config_state` output.

    Raises:
        SimulationError: if the state is malformed.
    """
    return records.load(CONFIG, state, "config state", "config")


# -- ISP aggregates ------------------------------------------------------------------


def isp_aggregate_state(isp: CompliantISP) -> dict[str, Any]:
    """The per-user-independent slice of an ISP's durable state, which
    the store persists every barrier (O(n_isps)); user records are
    persisted only when dirty."""
    return records.dump(ISP_AGGREGATE, isp)


def load_isp_aggregate_state(isp: CompliantISP, state: Any) -> None:
    """Restore an :func:`isp_aggregate_state` record onto ``isp`` in place.

    Raises:
        SimulationError: if the record is malformed or belongs to
            another ISP.
    """
    kind, key = "ISP aggregate", str(isp.isp_id)
    values = records.load(ISP_AGGREGATE, state, kind, key)
    if values["isp_id"] != isp.isp_id:
        raise SimulationError(
            f"malformed {kind} {key!r}: field 'isp_id': belongs to "
            f"isp{values['isp_id']}"
        )
    records.assign(ISP_AGGREGATE, isp, values, kind, key)
