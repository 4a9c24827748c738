"""The structured event bus: virtual-time-stamped trace recording.

A :class:`TraceRecorder` is the single funnel every subsystem emits
through. Each event becomes one canonical JSON line — keys sorted,
compact separators — so the byte stream for a given run is a pure
function of the seed. A recorder with a line sink or no sink maintains
an incremental SHA-256 digest over those lines, which is what makes the
trace usable as a test oracle: two runs agree iff their digests agree,
without holding either trace in memory.

A recorder whose sink is a :class:`DigestSink` is *digest-only*: its
accumulators read the event dicts, nothing reads a line, so it builds
no line and keeps no stream digest (:meth:`TraceRecorder.digest` raises).
A digest-only recorder whose accumulators all drop ``t`` and ``seq`` is
also *counting*: an event's time and order reach no reader, so the hot
ledger emit sites (``send``, ``deliver``, ``topup``, ``bank.trade``)
call :meth:`TraceRecorder.record`, which counts a key tuple of raw values
instead of building the event, and each distinct key becomes its event
once, when a reader of the accumulators drains the counts.

Cost model (DESIGN.md §Observability): every emit site in the hot path
is guarded with ``if tracer.enabled:`` so the disabled path is one
attribute load and a branch — no argument packing, no allocation. An
emitted event is built once: the recorder hands every sink the event
dict together with its canonical line (``sink.accept(event, line)``).
Line sinks keep the line; :class:`DigestSink` feeds the dict to its
accumulators and is handed ``line=None``: no event is encoded when no
sink reads the line, and none is ever parsed back from its own JSON. A
counted event is no dict at all until the counts are drained, and then
one dict per distinct key. ``perfbench/run.py --trace 1`` measures
emitted events as the ``trace.emit_s`` and ``trace.sink_s`` layers;
counted ones cost their emit site's own layer.

Timestamps are **virtual time only** — no wall clock reaches a trace,
so traces stay byte-reproducible across machines.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from typing import Callable, Iterable

from ..errors import SimulationError

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceRecorder",
    "ListSink",
    "JsonlSink",
    "NULL_TRACER",
    "DigestSink",
    "canonical_line",
    "AdditiveMultisetDigest",
]

#: Bumped whenever the line encoding or the digest definition changes, so
#: manifests from incompatible versions never compare equal by accident.
TRACE_FORMAT_VERSION = 1


#: One shared encoder: ``json.dumps`` with non-default options builds a
#: new ``JSONEncoder`` per call; this is the same encoding without that.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
if json.encoder.c_make_encoder is not None:
    # What that encoder's ``encode`` builds for every dict, built once
    # here instead of per call (and with no circular-reference check:
    # an event is a tree).
    _iterencode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ":", ",", True, False, True,
    )

    def _encode(event: dict) -> str:
        return "".join(_iterencode(event, 0))


def canonical_line(event: dict) -> str:
    """The one true encoding of an event: sorted keys, compact separators.

    Every digest in this package is defined over these bytes; any other
    serialization of the same event is a display convenience only.
    """
    return _encode(event)


class ListSink:
    """Unbounded in-memory retention, for runs whose full trace is
    wanted afterwards (tests and the CLI)."""

    __slots__ = ("_lines",)

    def __init__(self) -> None:
        self._lines: list[str] = []

    def accept(self, event: dict, line: str) -> None:
        self._lines.append(line)

    def lines(self) -> list[str]:
        return list(self._lines)

    def events(self) -> list[dict]:
        return [json.loads(line) for line in self._lines]

    def __len__(self) -> int:
        return len(self._lines)


class DigestSink:
    """Feeds every event into one or more digest accumulators, bounded memory.

    The sink for runs whose trace is only wanted as a digest — the
    cluster workers, the soak and the cross-executor determinism
    checks. Every event dict is offered to each accumulator (typically
    :class:`AdditiveMultisetDigest` instances with different type
    filters); the line is not needed, and a recorder with this sink
    passes ``None`` for it.
    """

    __slots__ = ("_accumulators",)

    def __init__(self, *accumulators) -> None:
        self._accumulators = accumulators

    def accept(self, event: dict, line: str | None) -> None:
        for accumulator in self._accumulators:
            accumulator.add(event)


class JsonlSink:
    """Streams canonical lines to a file (JSONL), one event per line.

    Accepts a path or any object with ``write``. Paths are opened for
    writing immediately and closed by :meth:`close`; caller-supplied
    file objects are flushed but never closed.

    Every line is written in one ``write`` call, so a kill can only
    truncate the tail, never interleave two events. :meth:`close`
    flushes and fsyncs the file.
    """

    __slots__ = ("_file", "_owns")

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._file = target
            self._owns = False
        else:
            self._file = open(target, "w", encoding="utf-8")
            self._owns = True

    def accept(self, event: dict, line: str) -> None:
        self._file.write(line + "\n")

    def sync(self) -> None:
        """Flush and fsync without closing — a durability barrier.

        :meth:`close` calls it; a caller streaming a long trace may call
        it to bound what a crash can lose. (The soak does not: it traces
        into a :class:`DigestSink`.) No-op fsync for caller-supplied
        objects without a real file descriptor.
        """
        self._file.flush()
        try:
            os.fsync(self._file.fileno())
        except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
            pass

    def close(self) -> None:
        """Flush (and fsync), and close the file if this sink opened it."""
        self.sync()
        if self._owns:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceRecorder:
    """The event bus: timestamps, sequences, digests and fans out events.

    Args:
        sink: Optional retention (:class:`ListSink`, :class:`JsonlSink`, :class:`DigestSink`, or anything with
            ``accept(event, line)``; the event dict is shared, so sinks
            must not mutate it). The sink type, read once here, decides
            what each event costs: with a :class:`DigestSink` the
            recorder is digest-only — no canonical line, no stream
            digest — and counting when every accumulator drops ``t`` and
            ``seq`` (:attr:`counts`); with any other sink, or none, it
            encodes every event and keeps the stream digest.
        clock: Zero-argument virtual-time source. Subsystems that own a
            clock (the engine, the direct-mode network driver) install
            one on attachment if none is set; events emitted with no
            clock carry ``t=0.0``.
        enabled: When ``False`` every :meth:`emit` is a no-op. Emit
            sites additionally guard on :attr:`enabled` themselves so
            the disabled hot path never packs arguments.

    Attributes:
        counts: ``None`` unless the recorder is counting; then the table
            of counted events, ``{(build, *values): n}`` (see
            :meth:`record`), emptied whenever a fed accumulator or
            :attr:`events_emitted` is read.
    """

    __slots__ = (
        "enabled", "clock", "sink", "counts", "_emitted", "_seq", "_hash",
        "_tallies",
    )

    #: Distinct keys :attr:`counts` holds before :meth:`record` drains
    #: it, so memory stays bounded for any event mix (as the
    #: accumulator's ``PENDING_CAP`` bounds its pending map).
    COUNTS_CAP = 16384

    def __init__(
        self,
        *,
        sink=None,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self.sink = sink
        self._emitted = 0
        self._seq = 0
        self._tallies: list[Callable[[dict], None]] = []
        digest_only = isinstance(sink, DigestSink)
        # None marks a digest-only recorder: nothing reads its lines.
        self._hash = None if digest_only else hashlib.sha256()
        counting = digest_only and all(
            isinstance(acc, AdditiveMultisetDigest)
            and _ORDER_FIELDS <= acc._exclude
            for acc in sink._accumulators
        )
        self.counts: dict[tuple, int] | None = {} if counting else None
        if counting:
            for acc in sink._accumulators:
                acc._feeds.append(self._drain)

    @property
    def events_emitted(self) -> int:
        """Events recorded so far, emitted and counted."""
        if self.counts is not None:
            self._drain()
        return self._emitted

    def emit(self, etype: str, **fields) -> None:
        """Record one event of type ``etype`` at the current virtual time."""
        if not self.enabled:
            return
        clock = self.clock
        self._emit_at(clock() if clock is not None else 0.0, etype, fields)

    def emit_at(self, t: float, etype: str, **fields) -> None:
        """Record one event with an explicit timestamp.

        No program path calls it: every emit site in ``src/`` uses
        :meth:`emit` and its clock. It stays because
        ``perfbench/layers.py`` wraps ``TraceRecorder.emit_at`` by name
        (``BOUNDARIES``) for the ``trace.emit`` layer, and a missing
        boundary fails the harness.
        """
        if not self.enabled:
            return
        self._emit_at(t, etype, fields)

    def _emit_at(self, t: float, etype: str, fields: dict) -> None:
        self._seq += 1
        event = {"t": t, "seq": self._seq, "type": etype}
        if fields:
            event.update(fields)
        self._emitted += 1
        stream = self._hash
        if stream is None:
            self.sink.accept(event, None)
            return
        line = _encode(event)
        stream.update((line + "\n").encode("utf-8"))
        sink = self.sink
        if sink is not None:
            sink.accept(event, line)

    def record(self, build: Callable[..., dict], *values) -> None:
        """Record the event ``build(*values)``, counted when possible.

        ``build`` returns the event dict with its ``type`` and no ``t``
        or ``seq``. A counting recorder adds ``(build, *values)`` to
        :attr:`counts` and builds nothing; any other recorder emits the
        built event now. Each value position must hold one exact type:
        the count table conflates ``1``, ``1.0`` and ``True``.
        """
        counts = self.counts
        if counts is None:
            fields = build(*values)
            self.emit(fields.pop("type"), **fields)
            return
        key = (build, *values)
        n = counts.get(key, 0)
        if not n and len(counts) >= self.COUNTS_CAP:
            self._drain()
        counts[key] = n + 1

    def add_tally(self, fold: Callable[[dict], None]) -> None:
        """Register a holder of counted events kept in another form.

        Each drain of the counts first calls ``fold(counts)``, which
        must add what it holds to the :attr:`counts` table it is handed
        and then hold nothing (the columnar executor's packed keys do
        this).
        """
        self._tallies.append(fold)

    def _drain(self) -> None:
        """Hand every counted event to the accumulators.

        Builds each distinct key's event once and adds it with its
        multiplicity (:meth:`AdditiveMultisetDigest.add_counted`).
        Every read of a fed accumulator, and of :attr:`events_emitted`,
        drains first, so no reader sees a count table.
        """
        counts = self.counts
        for fold in self._tallies:
            fold(counts)
        if not counts:
            return
        accumulators = self.sink._accumulators
        for key, n in counts.items():
            event = key[0](*key[1:])
            for accumulator in accumulators:
                accumulator.add_counted(event, n)
            self._emitted += n
        counts.clear()

    def digest(self) -> str:
        """SHA-256 over every canonical line emitted so far (hex).

        Raises:
            SimulationError: on a digest-only recorder (its sink is a
                :class:`DigestSink`), which never built those lines.
        """
        if self._hash is None:
            raise SimulationError(
                "digest-only recorder keeps no stream digest: read its "
                "DigestSink accumulators, or attach a line sink or no sink"
            )
        return self._hash.hexdigest()


#: Shared disabled recorder: components default to this so ``tracer`` is
#: never ``None`` and the guard is always a plain attribute check. Never
#: mutate it (it is shared); pass a real recorder to enable tracing.
NULL_TRACER = TraceRecorder(enabled=False)


#: A journaled accumulator sum: what ``format(sum, "x")`` writes for a
#: value below 2**256.
_SUM_HEX = re.compile(r"[0-9a-fA-F]{1,64}")


#: Value types whose equality matches their encoding once the exact type
#: is part of the key (``True == 1`` but they encode apart; the types in
#: the key keep them apart). Floats are left out because ``0.0 == -0.0``,
#: containers because they are unhashable. Field names are strings in
#: every emitted or parsed event, so they need no type.
_COUNTABLE_TYPES = frozenset({str, int, bool, type(None)})

#: The fields a counted event lacks: an accumulator that keeps either
#: cannot be fed counts.
_ORDER_FIELDS = frozenset({"t", "seq"})


class AdditiveMultisetDigest:
    """Order-insensitive multiset hash that merges and survives restarts.

    Each event is reduced to its canonical bytes minus ``exclude_fields``
    — by default the timestamp and sequence number, so two runs that
    produced the *same things at different times or interleavings* still
    compare equal — after an optional ``include_types`` allow-list and
    ``exclude_types`` deny-list. The accumulator is the *sum* of
    per-event SHA-256 values mod 2**256 plus a count, so a shard worker
    can journal it mid-run (:meth:`state_dict` / :meth:`load_state`), a
    restarted worker can resume it exactly, and the parent can
    :meth:`merge` per-shard accumulators into one cluster-wide digest
    whose value is independent of sharding and interleaving. Addition
    mod 2**256 is commutative and associative, which is the whole trick:
    two accumulators agree iff (with overwhelming probability) they
    absorbed the same multiset of reduced events.

    A reduced event seen n times adds n·H(e), so each distinct one is
    hashed once: a reduced event whose values are all ``str``, ``int``,
    ``bool`` or ``None`` is counted in a bounded ``pending`` map keyed
    by its field names, values and the values' exact types, and any
    other event (a float or container value) is hashed on arrival.
    :meth:`add_counted` takes the multiplicity from its caller, which
    has done the counting: it is how a counting :class:`TraceRecorder`
    feeds its events, one call per distinct event.
    Every read — :attr:`count`, :meth:`digest`, :meth:`state_dict` and
    both sides of :meth:`merge` — first drains the recorders that count
    into this accumulator, then flushes ``pending`` into the sum, as
    does reaching :attr:`PENDING_CAP` distinct entries; :meth:`load_state`
    discards both. State is therefore the sum, the count and at most
    :attr:`PENDING_CAP` pending entries; a journaled state has none.
    """

    _MOD = 1 << 256

    #: Distinct reduced events held before a flush. Bounds memory for
    #: any event mix, at a few MB; a fuzz world's ledger holds a few
    #: hundred distinct events and the 14-day macro world's 16,855.
    PENDING_CAP = 16384

    __slots__ = (
        "_sum", "_count", "_pending", "_wanted", "_unwanted", "_exclude",
        "_feeds",
    )

    def __init__(
        self,
        *,
        include_types: Iterable[str] | None = None,
        exclude_types: Iterable[str] | None = None,
        exclude_fields: tuple[str, ...] = ("t", "seq"),
    ) -> None:
        self._sum = 0
        self._count = 0
        self._pending: dict[tuple, int] = {}
        self._wanted = frozenset(include_types) if include_types is not None else None
        self._unwanted = (
            frozenset(exclude_types) if exclude_types is not None else frozenset()
        )
        self._exclude = frozenset(exclude_fields)
        # Drains of the counting recorders that feed this accumulator.
        self._feeds: list[Callable[[], None]] = []

    @property
    def count(self) -> int:
        """Events absorbed so far, counted ones included."""
        for feed in self._feeds:
            feed()
        return self._count

    def add(self, event: dict) -> None:
        """Absorb one event dict.

        Never mutates ``event``: a :class:`DigestSink` hands the same
        dict to every accumulator, each with its own ``exclude_fields``.
        """
        etype = event.get("type")
        if self._wanted is not None and etype not in self._wanted:
            return
        if etype in self._unwanted:
            return
        self._count += 1
        reduced = event.copy()
        for name in self._exclude:
            reduced.pop(name, None)
        values = reduced.values()
        types = tuple(map(type, values))
        if not _COUNTABLE_TYPES.issuperset(types):
            self._sum = (self._sum + _event_hash(reduced)) % self._MOD
            return
        # Names, values, then the values' types in one flat tuple: cheaper
        # to build and hash than a tuple per item.
        key = (*reduced, *values, *types)
        pending = self._pending
        pending[key] = pending.get(key, 0) + 1
        if len(pending) >= self.PENDING_CAP:
            self._flush()

    def add_counted(self, event: dict, n: int) -> None:
        """Absorb ``n`` copies of ``event``: the same as ``n`` :meth:`add` calls.

        For a caller that has already counted its events (a counting
        :class:`TraceRecorder`): the reduced event is hashed at once and
        added n times, n·H(e), with no ``pending`` entry. Never mutates
        ``event``.
        """
        etype = event.get("type")
        if self._wanted is not None and etype not in self._wanted:
            return
        if etype in self._unwanted:
            return
        self._count += n
        exclude = self._exclude
        if not exclude.isdisjoint(event):
            event = {k: v for k, v in event.items() if k not in exclude}
        self._sum = (self._sum + n * _event_hash(event)) % self._MOD

    def _sync(self) -> None:
        """Drain every feeding recorder, then flush ``pending``."""
        for feed in self._feeds:
            feed()
        self._flush()

    def _flush(self) -> None:
        """Fold every pending reduced event into the sum, n·H(e) each."""
        pending = self._pending
        if not pending:
            return
        total = self._sum
        for key, n in pending.items():
            width = len(key) // 3
            reduced = dict(zip(key[:width], key[width : 2 * width]))
            total += n * _event_hash(reduced)
        self._sum = total % self._MOD
        pending.clear()

    def merge(self, other: "AdditiveMultisetDigest") -> None:
        """Absorb everything ``other`` absorbed (disjoint-union merge)."""
        self._sync()
        other._sync()
        self._sum = (self._sum + other._sum) % self._MOD
        self._count += other._count

    def state_dict(self) -> dict:
        """JSON-compatible accumulator state (journal/restart support)."""
        self._sync()
        return {"sum": format(self._sum, "x"), "count": self._count}

    def load_state(self, state: dict) -> None:
        """Restore accumulator state written by :meth:`state_dict`.

        Replaces everything absorbed so far, pending and counted events
        included.

        Raises:
            SimulationError: naming the field, if ``state`` is not a
                dict, ``sum`` is missing or not 1–64 hex digits, or
                ``count`` is missing or not a non-negative integer — a
                corrupt journal must not resume as a plausible digest.
        """
        if not isinstance(state, dict):
            raise SimulationError(
                f"multiset digest state must be a dict with 'sum' and "
                f"'count', got {type(state).__name__}"
            )
        for name in ("sum", "count"):
            if name not in state:
                raise SimulationError(
                    f"multiset digest state: missing field {name!r}"
                )
        total, count = state["sum"], state["count"]
        if not isinstance(total, str) or not _SUM_HEX.fullmatch(total):
            raise SimulationError(
                f"multiset digest state: 'sum' must be 1-64 hex digits, "
                f"got {total!r}"
            )
        if type(count) is not int or count < 0:
            raise SimulationError(
                f"multiset digest state: 'count' must be a non-negative "
                f"integer, got {count!r}"
            )
        # Drained first so that the feeding recorder's other accumulators
        # keep their counted events; this one's are replaced below.
        for feed in self._feeds:
            feed()
        self._sum = int(total, 16)
        self._count = count
        self._pending.clear()

    def digest(self) -> str:
        """SHA-256 over ``count:sum`` (hex)."""
        self._sync()
        payload = f"{self._count}:{self._sum:064x}".encode("ascii")
        return hashlib.sha256(payload).hexdigest()


def _event_hash(reduced: dict) -> int:
    """One reduced event's SHA-256 over its canonical line, as an int."""
    return int.from_bytes(
        hashlib.sha256(_encode(reduced).encode("utf-8")).digest(), "big"
    )
