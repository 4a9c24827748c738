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

Cost model (DESIGN.md §Observability): every emit site in the hot path
is guarded with ``if tracer.enabled:`` so the disabled path is one
attribute load and a branch — no argument packing, no allocation. The
enabled path's cost is measured by ``perfbench/run.py --trace 1`` as
the ``trace.emit_s`` and ``trace.sink_s`` layers.

Each event is built once: the recorder hands every sink the event dict
together with its canonical line (``sink.accept(event, line)``). Line
sinks keep the line; :class:`DigestSink` feeds the dict to its
accumulators and is handed ``line=None``: no event is encoded when no
sink reads the line, and none is ever parsed back from its own JSON.

Timestamps are **virtual time only** — no wall clock reaches a trace,
so traces stay byte-reproducible across machines.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from collections import deque
from typing import Callable, Iterable

from ..errors import SimulationError

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceRecorder",
    "RingSink",
    "ListSink",
    "JsonlSink",
    "recover_jsonl_tail",
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


def canonical_line(event: dict) -> str:
    """The one true encoding of an event: sorted keys, compact separators.

    Every digest in this package is defined over these bytes; any other
    serialization of the same event is a display convenience only.
    """
    return _encode(event)


class RingSink:
    """Bounded in-memory retention: keeps the newest ``bound`` lines.

    The ring never exceeds its bound (property-tested); older lines fall
    off the front. The recorder's digest still covers *every* emitted
    event — the ring bounds memory, not the oracle.
    """

    __slots__ = ("_lines",)

    def __init__(self, bound: int = 4096) -> None:
        if bound <= 0:
            raise ValueError(f"ring bound must be positive, got {bound}")
        self._lines: deque[str] = deque(maxlen=bound)

    @property
    def bound(self) -> int:
        """The retention limit this ring was created with."""
        return self._lines.maxlen  # type: ignore[return-value]

    def accept(self, event: dict, line: str) -> None:
        """Retain one canonical line (evicting the oldest at the bound)."""
        self._lines.append(line)

    def lines(self) -> list[str]:
        """The retained lines, oldest first."""
        return list(self._lines)

    def events(self) -> list[dict]:
        """The retained lines parsed back into event dicts."""
        return [json.loads(line) for line in self._lines]

    def __len__(self) -> int:
        return len(self._lines)


class ListSink:
    """Unbounded in-memory retention, for tests and the CLI.

    Use :class:`RingSink` anywhere memory must stay bounded; this sink
    exists for short runs whose full trace is wanted afterwards.
    """

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
    """Feeds every event into one or more digest accumulators, O(1) memory.

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

    Crash safety for path-backed sinks: ``resume=True`` appends instead
    of truncating (a restarted service continues its trace), every line
    is written in one ``write`` call (a kill can only truncate the tail,
    not interleave), :meth:`sync` / :meth:`close` flush and ``fsync`` so
    acknowledged events survive power loss, and
    :func:`recover_jsonl_tail` trims a torn final line so the file stays
    parseable.
    """

    __slots__ = ("_file", "_owns")

    def __init__(self, target, *, resume: bool = False) -> None:
        if hasattr(target, "write"):
            self._file = target
            self._owns = False
        else:
            self._file = open(target, "a" if resume else "w", encoding="utf-8")
            self._owns = True

    def accept(self, event: dict, line: str) -> None:
        self._file.write(line + "\n")

    def sync(self) -> None:
        """Flush and fsync without closing — a durability barrier.

        The soak driver calls this at every store commit so the trace on
        disk is never behind the ledger it explains. No-op fsync for
        caller-supplied objects without a real file descriptor.
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


def recover_jsonl_tail(path) -> int:
    """Trim a torn trailing line from a killed run's JSONL trace.

    A fail-stop kill can leave the final line half-written (no trailing
    newline, or a newline-terminated line that is not valid JSON — the
    page holding the tail was only partially flushed). Everything before
    it is intact because each event was a single ``write``. This scans
    the complete, newline-terminated prefix, validates the last line,
    and truncates anything torn; returns the number of bytes dropped
    (0 when the file was already clean).

    Raises:
        SimulationError: if the file cannot be read.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SimulationError(f"cannot recover trace {path!r}: {exc}") from exc
    keep = len(data)
    # Drop a tail with no terminating newline outright.
    if keep and not data.endswith(b"\n"):
        keep = data.rfind(b"\n") + 1
    # The last newline-terminated line can still be torn mid-page:
    # validate it and drop it if unparseable.
    while keep:
        start = data.rfind(b"\n", 0, keep - 1) + 1
        try:
            json.loads(data[start : keep - 1])
            break
        except json.JSONDecodeError:
            keep = start
    dropped = len(data) - keep
    if dropped:
        with open(path, "r+b") as handle:
            handle.truncate(keep)
    return dropped


class TraceRecorder:
    """The event bus: timestamps, sequences, digests and fans out events.

    Args:
        sink: Optional retention (:class:`RingSink`, :class:`ListSink`,
            :class:`JsonlSink`, :class:`DigestSink`, or anything with
            ``accept(event, line)``; the event dict is shared, so sinks
            must not mutate it). The sink type, read once here, decides
            what each event costs: with a :class:`DigestSink` the
            recorder is digest-only — no canonical line, no stream
            digest — and with any other sink, or none, it encodes every
            event and keeps the stream digest.
        clock: Zero-argument virtual-time source. Subsystems that own a
            clock (the engine, the direct-mode network driver) install
            one on attachment if none is set; events emitted with no
            clock carry ``t=0.0``.
        enabled: When ``False`` every :meth:`emit` is a no-op. Emit
            sites additionally guard on :attr:`enabled` themselves so
            the disabled hot path never packs arguments.
    """

    __slots__ = ("enabled", "clock", "sink", "events_emitted", "_seq", "_hash")

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
        self.events_emitted = 0
        self._seq = 0
        # None marks a digest-only recorder: nothing reads its lines.
        self._hash = None if isinstance(sink, DigestSink) else hashlib.sha256()

    def emit(self, etype: str, **fields) -> None:
        """Record one event of type ``etype`` at the current virtual time."""
        if not self.enabled:
            return
        clock = self.clock
        self._emit_at(clock() if clock is not None else 0.0, etype, fields)

    def emit_at(self, t: float, etype: str, **fields) -> None:
        """Record one event with an explicit timestamp.

        For layers with no virtual clock of their own (the asyncio SMTP
        server) — the caller supplies whatever deterministic time it has.
        """
        if not self.enabled:
            return
        self._emit_at(t, etype, fields)

    def _emit_at(self, t: float, etype: str, fields: dict) -> None:
        self._seq += 1
        event = {"t": t, "seq": self._seq, "type": etype}
        if fields:
            event.update(fields)
        self.events_emitted += 1
        stream = self._hash
        if stream is None:
            self.sink.accept(event, None)
            return
        line = _encode(event)
        stream.update((line + "\n").encode("utf-8"))
        sink = self.sink
        if sink is not None:
            sink.accept(event, line)

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


class AdditiveMultisetDigest:
    """Order-insensitive multiset hash that merges and survives restarts.

    Each event is reduced to its canonical bytes minus ``exclude_fields``
    — by default the timestamp and sequence number, so two runs that
    produced the *same things at different times or interleavings* still
    compare equal — after an optional ``include_types`` allow-list and
    ``exclude_types`` deny-list. The accumulator is the *sum* of
    per-event SHA-256 values mod 2**256 plus a count — O(1) state, so a
    shard worker can journal it mid-run (:meth:`state_dict` /
    :meth:`load_state`), a restarted worker can resume it exactly, and
    the parent can :meth:`merge` per-shard accumulators into one
    cluster-wide digest whose value is independent of sharding and
    interleaving. Addition mod 2**256 is commutative and associative,
    which is the whole trick: two accumulators agree iff (with
    overwhelming probability) they absorbed the same multiset of reduced
    events.
    """

    _MOD = 1 << 256

    __slots__ = ("_sum", "count", "_wanted", "_unwanted", "_exclude")

    def __init__(
        self,
        *,
        include_types: Iterable[str] | None = None,
        exclude_types: Iterable[str] | None = None,
        exclude_fields: tuple[str, ...] = ("t", "seq"),
    ) -> None:
        self._sum = 0
        self.count = 0
        self._wanted = frozenset(include_types) if include_types is not None else None
        self._unwanted = (
            frozenset(exclude_types) if exclude_types is not None else frozenset()
        )
        self._exclude = frozenset(exclude_fields)

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
        reduced = event.copy()
        for name in self._exclude:
            reduced.pop(name, None)
        value = int.from_bytes(
            hashlib.sha256(_encode(reduced).encode("utf-8")).digest(), "big"
        )
        self._sum = (self._sum + value) % self._MOD
        self.count += 1

    def merge(self, other: "AdditiveMultisetDigest") -> None:
        """Absorb everything ``other`` absorbed (disjoint-union merge)."""
        self._sum = (self._sum + other._sum) % self._MOD
        self.count += other.count

    def state_dict(self) -> dict:
        """JSON-compatible accumulator state (journal/restart support)."""
        return {"sum": format(self._sum, "x"), "count": self.count}

    def load_state(self, state: dict) -> None:
        """Restore accumulator state written by :meth:`state_dict`.

        Raises:
            SimulationError: naming the field, if ``sum`` is not 1–64 hex
                digits or ``count`` is not a non-negative integer — a
                corrupt journal must not resume as a plausible digest.
        """
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
        self._sum = int(total, 16)
        self.count = count

    def digest(self) -> str:
        """SHA-256 over ``count:sum`` (hex)."""
        payload = f"{self.count}:{self._sum:064x}".encode("ascii")
        return hashlib.sha256(payload).hexdigest()
