"""SQLite (WAL mode) durable backend for Zmail deployment state.

The store is a key-value journal with per-record checksums:

* ``meta(key, value)`` — format versions, genesis topology (ISP count,
  users per ISP, compliant flags, config, seed) and the last committed
  barrier. Small, rewritten in full on every commit.
* ``records(kind, key, payload, checksum, barrier)`` — checksummed
  state fragments keyed by ``(kind, key)``: per-ISP aggregates, user
  purses (the dirty ones at a barrier, every one of a crashed chaos
  ISP), the bank ledger, gateway/endpoint/admission retry queues, a
  cluster shard's barrier record.
  ``payload`` is canonical JSON; ``checksum`` binds the
  payload to its (kind, key) identity so any on-disk corruption —
  including a flipped digit that would still parse — raises
  :class:`~repro.errors.SimulationError` on read.

WAL mode gives atomic multi-row commits (a barrier's writes land
together or not at all) with readers never blocking the writer;
``synchronous=NORMAL`` is WAL's durable-at-checkpoint setting — a crash
can lose at most the tail after the last committed transaction, never
corrupt committed state. The restart path re-runs from the last barrier
either way, which is exactly the crash model the chaos harness tests.

All ``sqlite3`` errors surface as ``SimulationError``: callers handle
one failure vocabulary.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterator

from ..errors import SimulationError
from .codec import (
    STORE_FORMAT_VERSION,
    decode_payload,
    encode_payload,
    record_checksum,
)

__all__ = ["DurableStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS records (
    kind     TEXT    NOT NULL,
    key      TEXT    NOT NULL,
    payload  TEXT    NOT NULL,
    checksum TEXT    NOT NULL,
    barrier  INTEGER NOT NULL,
    PRIMARY KEY (kind, key)
) WITHOUT ROWID;
"""


class DurableStore:
    """A checksummed key-value journal over one SQLite file.

    Use :meth:`create` for a fresh store and :meth:`open` for an
    existing one (the latter verifies format versions). Writes go
    through :meth:`commit`, which wraps a batch of puts/deletes in one
    WAL transaction — the store's only unit of durability.
    """

    def __init__(self, path: str, *, _create: bool = False) -> None:
        self.path = path
        try:
            self._conn = sqlite3.connect(path, isolation_level=None)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            raise SimulationError(f"cannot open store {path!r}: {exc}") from exc
        found = self.meta_get("store_format_version")
        if _create:
            if found is not None:
                self._conn.close()
                raise SimulationError(
                    f"store {path!r} already exists; a fresh run must not "
                    "load an earlier run's state"
                )
            self._meta_put_now("store_format_version", str(STORE_FORMAT_VERSION))
        elif found != str(STORE_FORMAT_VERSION):
            raise SimulationError(
                f"store {path!r} has format version {found!r}, "
                f"expected {STORE_FORMAT_VERSION!r}"
            )

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(cls, path: str) -> "DurableStore":
        """Create a fresh store.

        Raises:
            SimulationError: if ``path`` already holds a store.
        """
        return cls(path, _create=True)

    @classmethod
    def open(cls, path: str) -> "DurableStore":
        """Open an existing store, verifying its format version."""
        return cls(path)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- meta --------------------------------------------------------------------

    def _meta_put_now(self, key: str, value: str) -> None:
        try:
            self._conn.execute(
                "INSERT INTO meta(key, value) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (key, value),
            )
        except sqlite3.Error as exc:
            raise SimulationError(f"store meta write failed: {exc}") from exc

    def meta_get(self, key: str) -> str | None:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key=?", (key,)
            ).fetchone()
        except sqlite3.Error as exc:
            raise SimulationError(f"store meta read failed: {exc}") from exc
        return row[0] if row is not None else None

    def meta_require(self, key: str) -> str:
        value = self.meta_get(key)
        if value is None:
            raise SimulationError(f"store is missing meta key {key!r}")
        return value

    # -- transactional writes ----------------------------------------------------

    def commit(
        self,
        puts: Iterator[tuple[str, str, Any]] | list[tuple[str, str, Any]] = (),
        *,
        barrier: int,
        deletes: Iterator[tuple[str, str]] | list[tuple[str, str]] = (),
        meta: dict[str, str] | None = None,
    ) -> int:
        """Atomically apply a batch of writes at one barrier point.

        ``puts`` yields ``(kind, key, value)`` triples; values are
        stored as canonical JSON with their checksum and upserted by one
        ``executemany``. The whole batch plus the ``barrier`` meta bump
        lands in a single WAL transaction. Returns the number of records
        written.
        """
        # Encode before the transaction opens: a value the codec refuses
        # raises here with nothing written.
        rows = []
        for kind, key, value in puts:
            payload = encode_payload(value)
            rows.append(
                (kind, key, payload, record_checksum(kind, key, payload), barrier)
            )
        meta_rows = [*(meta or {}).items(), ("barrier", str(barrier))]
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.executemany(
                "INSERT INTO records(kind, key, payload, checksum, barrier) "
                "VALUES(?, ?, ?, ?, ?) "
                "ON CONFLICT(kind, key) DO UPDATE SET "
                "payload=excluded.payload, checksum=excluded.checksum, "
                "barrier=excluded.barrier",
                rows,
            )
            self._conn.executemany(
                "DELETE FROM records WHERE kind=? AND key=?", deletes
            )
            self._conn.executemany(
                "INSERT INTO meta(key, value) VALUES(?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                meta_rows,
            )
            self._conn.execute("COMMIT")
        except BaseException as exc:
            # Roll back on *any* failure so no partial batch is ever left
            # in an open transaction.
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            if isinstance(exc, sqlite3.Error):
                raise SimulationError(f"store commit failed: {exc}") from exc
            raise
        return len(rows)

    # -- reads -------------------------------------------------------------------

    def _verify_row(self, kind: str, key: str, payload: str, checksum: str) -> Any:
        if record_checksum(kind, key, payload) != checksum:
            raise SimulationError(
                f"store record ({kind!r}, {key!r}) failed its checksum — "
                "refusing to load a corrupted ledger"
            )
        return decode_payload(payload)

    def get(self, kind: str, key: str) -> Any:
        """Fetch and verify one record; ``None`` if absent."""
        try:
            row = self._conn.execute(
                "SELECT payload, checksum FROM records WHERE kind=? AND key=?",
                (kind, key),
            ).fetchone()
        except sqlite3.Error as exc:
            raise SimulationError(f"store read failed: {exc}") from exc
        if row is None:
            return None
        return self._verify_row(kind, key, row[0], row[1])

    def iter_kind(self, kind: str) -> Iterator[tuple[str, Any]]:
        """Yield ``(key, value)`` for every record of ``kind``, verified."""
        try:
            rows = self._conn.execute(
                "SELECT key, payload, checksum FROM records "
                "WHERE kind=? ORDER BY key",
                (kind,),
            ).fetchall()
        except sqlite3.Error as exc:
            raise SimulationError(f"store scan failed: {exc}") from exc
        for key, payload, checksum in rows:
            yield key, self._verify_row(kind, key, payload, checksum)

    def count(self, kind: str | None = None) -> int:
        try:
            if kind is None:
                row = self._conn.execute("SELECT COUNT(*) FROM records").fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM records WHERE kind=?", (kind,)
                ).fetchone()
        except sqlite3.Error as exc:
            raise SimulationError(f"store count failed: {exc}") from exc
        return int(row[0])

    @property
    def barrier(self) -> int:
        """The last committed barrier (0 before the first commit)."""
        value = self.meta_get("barrier")
        return int(value) if value is not None else 0

    def verify(self) -> int:
        """Integrity-check the whole file; returns the record count.

        Runs SQLite's own page-level check, then re-verifies every
        record checksum. Raises ``SimulationError`` on the first
        corruption found.
        """
        try:
            status = self._conn.execute("PRAGMA integrity_check").fetchone()[0]
        except sqlite3.Error as exc:
            raise SimulationError(f"store integrity check failed: {exc}") from exc
        if status != "ok":
            raise SimulationError(f"store file failed integrity check: {status}")
        checked = 0
        try:
            rows = self._conn.execute(
                "SELECT kind, key, payload, checksum FROM records"
            ).fetchall()
        except sqlite3.Error as exc:
            raise SimulationError(f"store scan failed: {exc}") from exc
        for kind, key, payload, checksum in rows:
            self._verify_row(kind, key, payload, checksum)
            checked += 1
        return checked
