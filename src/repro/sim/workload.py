"""Email traffic workload generators.

Workloads produce streams of :class:`SendRequest` records — who wants to
send to whom, when, and why (normal correspondence, spam campaign, mailing
list post, or zombie burst). They are deliberately independent of the Zmail
core: the same traffic can be replayed through Zmail, through plain SMTP,
or through any baseline, which is what makes the comparisons in the
benchmark harness apples-to-apples.

Addresses are ``(isp_id, user_id)`` pairs matching the paper's model of
``n`` ISPs with ``m`` users each.

Every workload draws its traffic one way: ``generate_columns()`` yields
column chunks ``(times, sender_gids, recipient_gids)`` of parallel numpy
arrays, a few thousand arrivals per RNG call, where a *gid* is the flat
user index ``isp * users_per_isp + user``. The chunks stay lazy
(constant memory per stream) and are deterministic per seed. The
columnar batch executor (:mod:`repro.columnar`) consumes them directly,
and the direct loop, cluster shards and arena matches read them merged
and expanded into plain rows
(:meth:`~repro.core.scenario.Scenario.request_rows`); ``generate()``
expands the same chunks into :class:`SendRequest` records for the
engine-driven chaos and soak deployments and the examples, so every
executor replays byte-identical traffic by construction.
:func:`merge_workloads` over those records is also the reference order
the row view is tested against: the column merge's tie-break must match
``heapq.merge``'s, or every direct-semantics drive loop reorders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from ..errors import SimulationError
from ..records import Codec, List
from .clock import DAY
from .rng import SeededStreams

__all__ = [
    "TrafficKind",
    "Address",
    "ADDRESS",
    "SendRequest",
    "NormalUserWorkload",
    "SpamCampaignWorkload",
    "ZombieBurstWorkload",
    "FloodSpec",
    "FloodWorkload",
    "merge_workloads",
]

# Vectorized generators draw this many arrivals per RNG call: large enough
# to amortize numpy call overhead, small enough to keep streams lazy.
_CHUNK = 8192
#: Size of each normal user's fixed contact list.
CONTACTS_PER_USER = 8


class TrafficKind(Enum):
    """Why a message is being sent; used for per-class accounting."""

    NORMAL = "normal"
    SPAM = "spam"
    MAILING_LIST = "mailing_list"
    ACK = "ack"
    ZOMBIE = "zombie"


@dataclass(frozen=True, order=True, slots=True)
class Address:
    """A user's location: ISP index and user index within that ISP."""

    isp: int
    user: int

    def __str__(self) -> str:
        return f"user{self.user}@isp{self.isp}"


#: An :class:`Address` in a durable record: ``[isp, user]``.
ADDRESS = Codec(
    List(int), lambda address: [address.isp, address.user],
    lambda pair: Address(*pair),
)


@dataclass(frozen=True, slots=True)
class SendRequest:
    """One message a workload wants sent at a given virtual time."""

    time: float
    sender: Address
    recipient: Address
    kind: TrafficKind

    def __lt__(self, other: "SendRequest") -> bool:
        return self.time < other.time


def _address_table(n_isps: int, users_per_isp: int) -> list[Address]:
    """Every user's :class:`Address`, indexed by gid."""
    return [Address(i, u) for i in range(n_isps) for u in range(users_per_isp)]


def _expand(chunks, addresses: list[Address], kind: TrafficKind):
    """Expand ``(times, senders, recipients)`` column chunks into requests.

    ``addresses`` maps each gid to its :class:`Address`; the per-message
    work left in python is two list lookups and the allocation.
    """
    for times, senders, recipients in chunks:
        for when, sender, recipient in zip(
            times.tolist(), senders.tolist(), recipients.tolist()
        ):
            yield SendRequest(
                when, addresses[sender], addresses[recipient], kind
            )


class NormalUserWorkload:
    """Poisson correspondence among normal users.

    Each user sends at ``rate_per_day`` on average; recipients are drawn
    from the sender's contact list (a fixed random subset of
    :data:`CONTACTS_PER_USER` other users), modelling the paper's
    observation that normal users roughly balance sends and receives
    over time.
    """

    def __init__(
        self,
        *,
        n_isps: int,
        users_per_isp: int,
        rate_per_day: float,
        streams: SeededStreams,
        name: str = "normal",
    ) -> None:
        if n_isps <= 0 or users_per_isp <= 0:
            raise ValueError("need at least one ISP and one user per ISP")
        if rate_per_day < 0:
            raise ValueError("rate_per_day must be non-negative")
        self.n_isps = n_isps
        self.users_per_isp = users_per_isp
        self.rate_per_day = rate_per_day
        self._streams = streams
        self.name = name
        self._addresses = _address_table(n_isps, users_per_isp)

    def generate(self, duration: float) -> Iterator[SendRequest]:
        """Yield requests over ``[0, duration)`` in time order."""
        return _expand(
            self.generate_columns(duration), self._addresses, TrafficKind.NORMAL
        )

    def _contact_table(self):
        """Contact lists as a gid matrix + per-sender counts.

        Each sender's contacts come from its own named stream, so the
        table does not depend on the order it is built in.
        """
        n = len(self._addresses)
        counts = np.zeros(n, dtype=np.int64)
        table = np.zeros((n, CONTACTS_PER_USER), dtype=np.int64)
        for gid, sender in enumerate(self._addresses):
            stream = self._streams.get(f"{self.name}:contacts:{sender}")
            others = [other for other in range(n) if other != gid]
            k = min(CONTACTS_PER_USER, len(others))
            counts[gid] = k
            table[gid, :k] = stream.sample(others, k)
        return table, counts

    def generate_columns(self, duration: float):
        """Yield ``(times, sender_gids, recipient_gids)`` column chunks."""
        if self.rate_per_day == 0:
            return
        rng = self._streams.get_numpy(f"{self.name}:arrivals")
        n_population = len(self._addresses)
        total_rate = self.rate_per_day * n_population / DAY
        table, counts = self._contact_table()
        t = 0.0
        while True:
            gaps = rng.exponential(1.0 / total_rate, size=_CHUNK)
            times = gaps.cumsum()
            times += t
            t = float(times[-1])
            senders = rng.integers(0, n_population, size=_CHUNK)
            picks = rng.random(size=_CHUNK)
            # Stop at the first arrival past the horizon (times are
            # monotone within a chunk).
            limit = int(np.searchsorted(times, duration, side="left"))
            times = times[:limit]
            senders = senders[:limit]
            picks = picks[:limit]
            n_contacts = counts[senders]
            keep = n_contacts > 0
            if not keep.all():
                # Senders without contacts consume their draws but emit
                # nothing.
                times = times[keep]
                senders = senders[keep]
                picks = picks[keep]
                n_contacts = n_contacts[keep]
            recipients = table[senders, (picks * n_contacts).astype(np.int64)]
            if len(times):
                yield times, senders.astype(np.int64), recipients
            if limit < _CHUNK:
                return


class SpamCampaignWorkload:
    """A bulk-mail campaign blasting the whole population.

    The spammer lives at ``spammer`` and sends ``volume`` messages spread
    uniformly over ``[start, start + duration)`` to recipients sampled
    uniformly from the population (with replacement — real campaigns
    re-hit addresses).
    """

    def __init__(
        self,
        *,
        spammer: Address,
        n_isps: int,
        users_per_isp: int,
        volume: int,
        start: float,
        duration: float,
        streams: SeededStreams,
        name: str = "spam",
    ) -> None:
        if volume < 0:
            raise ValueError("volume must be non-negative")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.spammer = spammer
        self.volume = volume
        self.start = start
        self.duration = duration
        self.users_per_isp = users_per_isp
        self._streams = streams
        self.name = name
        self._addresses = _address_table(n_isps, users_per_isp)
        if spammer not in self._addresses:
            raise ValueError(f"spammer {spammer} is not a user")

    def generate(self) -> Iterator[SendRequest]:
        """Yield the campaign's requests in time order."""
        return _expand(
            self.generate_columns(), self._addresses, TrafficKind.SPAM
        )

    def generate_columns(self):
        """Yield the campaign as one ``(times, senders, recipients)`` chunk."""
        n_targets = len(self._addresses) - 1
        if not n_targets or self.volume == 0:
            return
        rng = self._streams.get_numpy(f"{self.name}:times")
        times = rng.uniform(
            self.start, self.start + self.duration, size=self.volume
        )
        times.sort()
        targets = rng.integers(0, n_targets, size=self.volume)
        # Targets exclude the spammer, so gids at or past the spammer's
        # slot shift up by one.
        spammer_gid = self.spammer.isp * self.users_per_isp + self.spammer.user
        recipients = targets + (targets >= spammer_gid)
        senders = np.full(self.volume, spammer_gid, dtype=np.int64)
        yield times, senders, recipients


class ZombieBurstWorkload:
    """A compromised user machine blasting mail at machine speed.

    Models the paper's §5 scenario: a virus turns a user's PC into a zombie
    that sends ``rate_per_hour`` messages until ``end``. The Zmail daily
    ``limit`` should cut this off after ``limit`` messages per day.
    """

    def __init__(
        self,
        *,
        zombie: Address,
        n_isps: int,
        users_per_isp: int,
        rate_per_hour: float,
        start: float,
        end: float,
        streams: SeededStreams,
        name: str = "zombie",
    ) -> None:
        if rate_per_hour <= 0:
            raise ValueError("rate_per_hour must be positive")
        if end <= start:
            raise ValueError("end must be after start")
        self.zombie = zombie
        self.rate_per_hour = rate_per_hour
        self.start = start
        self.end = end
        self.users_per_isp = users_per_isp
        self._streams = streams
        self.name = name
        self._addresses = _address_table(n_isps, users_per_isp)
        if zombie not in self._addresses:
            raise ValueError(f"zombie {zombie} is not a user")

    def generate(self) -> Iterator[SendRequest]:
        """Yield the burst's requests in time order."""
        return _expand(
            self.generate_columns(), self._addresses, TrafficKind.ZOMBIE
        )

    def generate_columns(self):
        """Yield ``(times, senders, recipients)`` chunks for the burst."""
        n_targets = len(self._addresses) - 1
        if not n_targets:
            return
        rng = self._streams.get_numpy(f"{self.name}:arrivals")
        scale = 3600.0 / self.rate_per_hour
        zombie_gid = self.zombie.isp * self.users_per_isp + self.zombie.user
        end = self.end
        t = self.start
        while True:
            gaps = rng.exponential(scale, size=_CHUNK)
            times = gaps.cumsum()
            times += t
            t = float(times[-1])
            targets = rng.integers(0, n_targets, size=_CHUNK)
            limit = int(np.searchsorted(times, end, side="left"))
            times = times[:limit]
            targets = targets[:limit]
            recipients = targets + (targets >= zombie_gid)
            senders = np.full(limit, zombie_gid, dtype=np.int64)
            if limit:
                yield times, senders, recipients
            if limit < _CHUNK:
                return


@dataclass(frozen=True)
class FloodSpec:
    """A burst/flood load-injection fault: overload as a first-class fault.

    A set of ``attackers`` user machines at ``attacker_isp`` blast
    Poisson traffic at ``rate_per_sec`` (aggregate) toward random users
    of ``target_isp`` over ``[start, start + duration)``. The attack
    traffic is ordinary :class:`SendRequest` workload — overload is an
    *admission-layer* fault, so it is injected where mail enters the
    system, not on the wire. Floods are plain traffic: every drive,
    the chaos and soak deployments included, runs them as a
    :class:`FloodWorkload`.

    Attributes:
        attacker_isp: ISP hosting the flooding machines (the ISP whose
            admission controller absorbs the burst).
        target_isp: ISP whose users receive the flood.
        rate_per_sec: Aggregate offered load of the flood.
        start: Virtual time the burst begins.
        duration: Burst length in seconds.
        attackers: Number of distinct compromised sender machines.
        kind: Traffic classification of the flood (``"zombie"`` by
            default — sheds first under the priority policy).
    """

    attacker_isp: int = 0
    target_isp: int = 1
    rate_per_sec: float = 100.0
    start: float = 0.0
    duration: float = 60.0
    attackers: int = 4
    kind: str = "zombie"

    def __post_init__(self) -> None:
        if self.rate_per_sec <= 0:
            raise SimulationError("flood rate_per_sec must be positive")
        if self.duration <= 0:
            raise SimulationError("flood duration must be positive")
        if self.start < 0:
            raise SimulationError("flood start must be non-negative")
        if self.attackers < 1:
            raise SimulationError("flood needs at least one attacker")
        if self.kind not in TrafficKind._value2member_map_:
            raise SimulationError(f"unknown flood traffic kind {self.kind!r}")


class FloodWorkload:
    """A :class:`FloodSpec` as executor-neutral traffic.

    The one generator of flood arrivals, on every drive: Poisson
    arrivals from a named numpy stream, drawn as column chunks like
    every workload here and expanded to requests on demand.
    """

    def __init__(
        self,
        *,
        spec: FloodSpec,
        n_isps: int,
        users_per_isp: int,
        streams: SeededStreams,
        name: str = "flood",
    ) -> None:
        if not 0 <= spec.attacker_isp < n_isps or not 0 <= spec.target_isp < n_isps:
            raise SimulationError(
                f"flood ISPs out of range: {spec.attacker_isp} -> "
                f"{spec.target_isp}"
            )
        self.spec = spec
        self.users_per_isp = users_per_isp
        self._streams = streams
        self.name = name
        self._addresses = _address_table(n_isps, users_per_isp)

    def generate(self) -> Iterator[SendRequest]:
        """Yield the flood's requests in time order."""
        return _expand(
            self.generate_columns(), self._addresses, TrafficKind(self.spec.kind)
        )

    def generate_columns(self):
        """Yield ``(times, senders, recipients)`` chunks for the flood."""
        spec = self.spec
        rng = self._streams.get_numpy(f"{self.name}:arrivals")
        users_per_isp = self.users_per_isp
        attacker_gids = spec.attacker_isp * users_per_isp + (
            np.arange(spec.attackers, dtype=np.int64) % users_per_isp
        )
        target_base = spec.target_isp * users_per_isp
        end = spec.start + spec.duration
        t = spec.start
        while True:
            gaps = rng.exponential(1.0 / spec.rate_per_sec, size=_CHUNK)
            times = gaps.cumsum()
            times += t
            t = float(times[-1])
            which = rng.integers(0, len(attacker_gids), size=_CHUNK)
            targets = rng.integers(0, users_per_isp, size=_CHUNK)
            limit = int(np.searchsorted(times, end, side="left"))
            if limit:
                yield (
                    times[:limit],
                    attacker_gids[which[:limit]],
                    target_base + targets[:limit],
                )
            if limit < _CHUNK:
                return


def merge_workloads(*iterators: Iterator[SendRequest]) -> Iterator[SendRequest]:
    """Merge independently time-ordered request streams into one ordering.

    Standard k-way merge; each input must itself be time-ordered. The key
    is extracted with :func:`operator.attrgetter` (C level) because the
    merge sits on the hot path of every streamed scenario.
    """
    import heapq
    import operator

    return iter(heapq.merge(*iterators, key=operator.attrgetter("time")))
