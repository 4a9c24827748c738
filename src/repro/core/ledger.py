"""The compliant ISP's internal ledger.

Holds every user's purses plus the ISP's own sellable e-penny pool
(the paper's ``avail``), and implements the §4.2 user-facing exchange:
users buy e-pennies from the pool with real pennies and sell them back,
always 1:1 at the fixed e-penny price.

Every mutation preserves the ledger-local conservation law::

    sum(user accounts) + sum(user balances) + pool  ==  constant
                                            (absent external transfers)

External transfers — e-pennies leaving with an email, arriving with one,
or moving to/from the bank — go through the explicit ``external_*``
methods so auditors (and tests) can account for every unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InsufficientBalance, UnknownUser
from .user import UserAccount

__all__ = ["Ledger", "LedgerTotals"]


@dataclass(frozen=True)
class LedgerTotals:
    """A point-in-time summary used by audits and conservation checks."""

    user_accounts: int
    user_balances: int
    pool: int
    cash: int

    @property
    def total_value(self) -> int:
        """All value held at the ISP, in penny-equivalents."""
        return self.user_accounts + self.user_balances + self.pool + self.cash


class Ledger:
    """User purses plus the ISP e-penny pool, with §4.2 exchange ops."""

    __slots__ = ("_users", "pool", "cash", "_genesis")

    def __init__(self, *, initial_pool: int) -> None:
        if initial_pool < 0:
            raise ValueError("initial_pool must be non-negative")
        self._users: dict[int, UserAccount] = {}
        self.pool = initial_pool
        # The ISP's own real pennies from §4.2 exchanges with users. The
        # paper's spec drops this side of the trade; tracking it makes the
        # ledger conservation law exact (see module docstring).
        self.cash = 0
        # Lazy-genesis template: ``(n_users, account, balance,
        # daily_limit)``. Users below ``n_users`` exist virtually with
        # exactly the template purses until first touched, so a
        # million-account ISP costs O(hot set) memory and a restart
        # replays O(dirty) state instead of materialising everyone.
        self._genesis: tuple[int, int, int, int] | None = None

    # -- user management --------------------------------------------------------

    def genesis_users(
        self, n_users: int, *, account: int, balance: int, daily_limit: int
    ) -> None:
        """Declare ``n_users`` identical users without materialising them.

        Only valid on an empty ledger; users materialise from the
        template on first access via :meth:`user`.
        """
        if self._users or self._genesis is not None:
            raise ValueError("genesis_users requires an empty ledger")
        if n_users < 0:
            raise ValueError(f"negative user count {n_users}")
        self._genesis = (n_users, account, balance, daily_limit)

    def _materialize(self, user_id: int) -> UserAccount:
        _, account, balance, daily_limit = self._genesis
        user = UserAccount(
            user_id=user_id,
            account=account,
            balance=balance,
            daily_limit=daily_limit,
        )
        self._users[user_id] = user
        return user

    def add_user(
        self, user_id: int, *, account: int, balance: int, daily_limit: int
    ) -> UserAccount:
        """Create a user with initial purses; duplicate ids are rejected."""
        if user_id in self:
            raise ValueError(f"user {user_id} already exists")
        user = UserAccount(
            user_id=user_id,
            account=account,
            balance=balance,
            daily_limit=daily_limit,
        )
        self._users[user_id] = user
        return user

    def user(self, user_id: int) -> UserAccount:
        """Look up a user, raising :class:`UnknownUser` if absent."""
        try:
            return self._users[user_id]
        except KeyError:
            if self._genesis is not None and 0 <= user_id < self._genesis[0]:
                return self._materialize(user_id)
            raise UnknownUser(f"no user {user_id}") from None

    def users(self) -> list[UserAccount]:
        """All users, ordered by id (materialises any pristine users)."""
        if self._genesis is not None:
            for user_id in range(self._genesis[0]):
                if user_id not in self._users:
                    self._materialize(user_id)
        return [self._users[k] for k in sorted(self._users)]

    def materialized_count(self) -> int:
        """How many accounts actually exist in memory (the hot set)."""
        return len(self._users)

    def __len__(self) -> int:
        if self._genesis is None:
            return len(self._users)
        n = self._genesis[0]
        return n + sum(1 for k in self._users if k >= n)

    def __contains__(self, user_id: int) -> bool:
        if user_id in self._users:
            return True
        return self._genesis is not None and 0 <= user_id < self._genesis[0]

    # -- §4.2 user <-> ISP exchange ------------------------------------------------

    def user_buys_epennies(self, user_id: int, amount: int) -> None:
        """User converts real pennies to e-pennies from the pool.

        Mirrors the paper's action: requires both ``account[t] >= x`` and
        ``avail >= x``; otherwise the request is refused (raises).
        """
        if amount <= 0:
            raise ValueError(f"purchase amount must be positive, got {amount}")
        user = self.user(user_id)
        if self.pool < amount:
            raise InsufficientBalance(
                f"ISP pool {self.pool} cannot cover purchase of {amount}"
            )
        user.debit_pennies(amount)
        self.cash += amount
        user.credit_epennies(amount)
        self.pool -= amount

    def user_sells_epennies(self, user_id: int, amount: int) -> None:
        """User converts e-pennies back to real pennies; pool absorbs them."""
        if amount <= 0:
            raise ValueError(f"sale amount must be positive, got {amount}")
        user = self.user(user_id)
        user.debit_epennies(amount)
        user.credit_pennies(amount)
        self.cash -= amount
        self.pool += amount

    # -- external transfers (email and bank) ------------------------------------

    def external_debit(self, user_id: int, amount: int = 1) -> None:
        """E-pennies leave the ISP with an outgoing email."""
        self.user(user_id).debit_epennies(amount)

    def external_credit(self, user_id: int, amount: int = 1) -> None:
        """E-pennies arrive at the ISP with an incoming email."""
        self.user(user_id).credit_epennies(amount)

    def pool_credit(self, amount: int) -> None:
        """E-pennies bought from the bank land in the pool."""
        if amount < 0:
            raise ValueError(f"negative pool credit {amount}")
        self.pool += amount

    def pool_debit(self, amount: int) -> None:
        """E-pennies sold to the bank leave the pool."""
        if amount < 0:
            raise ValueError(f"negative pool debit {amount}")
        if self.pool < amount:
            raise InsufficientBalance(f"pool {self.pool} < {amount}")
        self.pool -= amount

    # -- audit -------------------------------------------------------------------

    def totals(self) -> LedgerTotals:
        """Snapshot of all value held at this ISP.

        Pristine genesis users all hold exactly the template purses, so
        the audit is O(materialised), not O(users): the paper's
        conservation law stays checkable at million-account scale.
        """
        user_accounts = sum(u.account for u in self._users.values())
        user_balances = sum(u.balance for u in self._users.values())
        if self._genesis is not None:
            n, account, balance, _ = self._genesis
            pristine = n - sum(1 for k in self._users if k < n)
            user_accounts += pristine * account
            user_balances += pristine * balance
        return LedgerTotals(
            user_accounts=user_accounts,
            user_balances=user_balances,
            pool=self.pool,
            cash=self.cash,
        )

    def reset_daily_counters(self) -> list[int]:
        """Midnight reset of every user's §4.1 ``sent`` counter.

        Returns the ids of the users whose counter it changed.
        """
        reset = []
        for user in self._users.values():
            if user.sent_today:
                user.reset_daily()
                reset.append(user.user_id)
        return reset
