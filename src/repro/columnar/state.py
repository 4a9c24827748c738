"""Struct-of-arrays mirror of an all-compliant ``ZmailNetwork``.

:class:`ColumnarState` flattens every per-user purse and counter, every
per-ISP ledger scalar and delivery statistic, and the inter-ISP credit
arrays into numpy arrays indexed by the flat user gid
``isp * users_per_isp + user`` (or by ISP id). While a batch executes,
the arrays are the authoritative copy; :meth:`spill` writes every field
back into the object layer before any protocol-visible operation
(reconciliation cut, midnight rollover, final zombie poll) so
``ZmailNetwork``/``ISP``/ledger semantics remain the source of truth,
and :meth:`refresh` reloads the arrays afterwards to pick up whatever
the object layer changed (credit reset at a cut, ``sent_today`` reset
and pool rebalancing at midnight).

The credit matrix needs a companion boolean *touched* mask: the object
layer's credit dicts materialize a key on first use and keep it at zero
thereafter (``get + 1`` then ``- 1``), so reproducing the exact dict key
sets — which reconciliation reports and state digests observe — requires
remembering which pairs traded at all, not just the net credit.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["ColumnarState"]

#: ``UserAccount`` attributes mirrored as gid-indexed int64 columns of the
#: same name.
USER_FIELDS = (
    "account", "balance", "daily_limit", "sent_today", "lifetime_sent",
    "lifetime_received", "lifetime_received_paid", "limit_warnings", "inbox",
)
#: Every per-user column: the ledger fields plus ``CompliantISP.limit_hits``.
USER_COLUMNS = USER_FIELDS + ("limit_hits",)
#: ``DeliveryStats`` counters the executor moves, mirrored per ISP as
#: ``stats_<name>`` columns.
STATS_FIELDS = (
    "sent_paid", "delivered_local", "received_paid", "blocked_balance",
    "blocked_limit",
)


class ColumnarState:
    """Numpy mirror of users, ledgers, stats and credit for one network.

    Per-user columns are the attributes named in :data:`USER_COLUMNS`;
    per-ISP columns are ``pool``, ``cash`` and ``stats_<name>`` for each
    name in :data:`STATS_FIELDS`.
    """

    def __init__(self, network) -> None:
        import numpy as np

        self._np = np
        self.network = network
        self.n_isps = network.n_isps
        self.users_per_isp = network.users_per_isp
        self.n_users = self.n_isps * self.users_per_isp
        n, k = self.n_users, self.n_isps
        for name in USER_COLUMNS:
            setattr(self, name, np.zeros(n, dtype=np.int64))
        for name in ("pool", "cash", *(f"stats_{f}" for f in STATS_FIELDS)):
            setattr(self, name, np.zeros(k, dtype=np.int64))
        # Inter-ISP credit: credit[a][b] lives at M[a, b]; touched marks
        # dict keys that exist (possibly at zero net credit).
        self.credit = np.zeros((k, k), dtype=np.int64)
        self.touched = np.zeros((k, k), dtype=bool)
        # Network-level metric deltas, applied to the counters at spill.
        self.metric_deltas: dict[str, int] = {}
        self.refresh()

    # -- object layer -> arrays ------------------------------------------------

    def refresh(self) -> None:
        """Reload every array from the object layer (boundaries are rare)."""
        np = self._np
        upi = self.users_per_isp
        read_user = attrgetter("user_id", *USER_FIELDS)
        read_stats = attrgetter(*STATS_FIELDS)
        for isp_id, isp in self.network.compliant_isps().items():
            base = isp_id * upi
            ledger = isp.ledger
            rows = np.array(
                [read_user(user) for user in ledger.users()], dtype=np.int64
            ).reshape(-1, 1 + len(USER_FIELDS))
            gids = base + rows[:, 0]
            for column, name in enumerate(USER_FIELDS, 1):
                getattr(self, name)[gids] = rows[:, column]
            self.limit_hits[gids] = 0
            for user_id, hits in isp.limit_hits.items():
                self.limit_hits[base + user_id] = hits
            self.pool[isp_id] = ledger.pool
            self.cash[isp_id] = ledger.cash
            for name, value in zip(STATS_FIELDS, read_stats(isp.stats)):
                getattr(self, f"stats_{name}")[isp_id] = value
            self.credit[isp_id, :] = 0
            self.touched[isp_id, :] = False
            for peer, value in isp.credit.items():
                self.credit[isp_id, peer] = value
                self.touched[isp_id, peer] = True

    # -- arrays -> object layer ------------------------------------------------

    def spill(self) -> None:
        """Write the arrays back so the object layer is authoritative."""
        upi = self.users_per_isp
        for isp_id, isp in self.network.compliant_isps().items():
            base = isp_id * upi
            ledger = isp.ledger
            columns = [
                getattr(self, name)[base : base + upi].tolist()
                for name in USER_FIELDS
            ]
            # daily_limit never changes in the arrays; writing it is a no-op.
            for user in ledger.users():
                for name, column in zip(USER_FIELDS, columns):
                    setattr(user, name, column[user.user_id])
            hits = self.limit_hits[base : base + upi]
            isp.limit_hits = {
                int(user_id): int(hits[user_id])
                for user_id in hits.nonzero()[0]
            }
            ledger.pool = int(self.pool[isp_id])
            ledger.cash = int(self.cash[isp_id])
            for name in STATS_FIELDS:
                value = int(getattr(self, f"stats_{name}")[isp_id])
                setattr(isp.stats, name, value)
            isp.credit = {
                int(peer): int(self.credit[isp_id, peer])
                for peer in self.touched[isp_id].nonzero()[0]
            }
        counter = self.network.metrics.counter
        for name, delta in self.metric_deltas.items():
            if delta:
                counter(name).increment(delta)
        self.metric_deltas.clear()

    def bump_metric(self, name: str, delta: int) -> None:
        """Accumulate a network metric delta for the next spill."""
        if delta:
            self.metric_deltas[name] = self.metric_deltas.get(name, 0) + delta
