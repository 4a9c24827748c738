"""Unit tests for the durable store backend and its record codec."""

import os
import sqlite3

import pytest

from repro.errors import SimulationError
from repro.store import DurableStore, record_checksum
from repro.store.codec import STORE_FORMAT_VERSION, decode_payload, encode_payload


@pytest.fixture
def store(tmp_path):
    s = DurableStore.create(str(tmp_path / "test.db"))
    yield s
    s.close()


class TestCodec:
    def test_encode_payload_canonical(self):
        assert encode_payload({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_decode_payload_roundtrip(self):
        value = {"nested": [1, 2, {"x": None}], "s": "text"}
        assert decode_payload(encode_payload(value)) == value

    def test_decode_payload_garbage_raises(self):
        with pytest.raises(SimulationError, match="corrupted store payload"):
            decode_payload("{not json")

    def test_checksum_binds_identity(self):
        payload = encode_payload({"v": 1})
        base = record_checksum("user", "0:1", payload)
        assert record_checksum("user", "0:2", payload) != base
        assert record_checksum("isp", "0:1", payload) != base
        assert record_checksum("user", "0:1", payload + " ") != base


class TestLifecycle:
    def test_create_pins_format_version(self, store):
        assert store.meta_get("store_format_version") == str(STORE_FORMAT_VERSION)

    def test_create_refuses_an_existing_store(self, tmp_path):
        # A fresh run must never load an earlier run's state.
        path = str(tmp_path / "s.db")
        with DurableStore.create(path) as s:
            s.commit([("user", "0:1", {"balance": 7})], barrier=3)
        with pytest.raises(SimulationError, match="already exists"):
            DurableStore.create(path)
        with DurableStore.open(path) as s:
            assert s.barrier == 3
            assert s.get("user", "0:1") == {"balance": 7}

    def test_open_existing(self, tmp_path):
        path = str(tmp_path / "s.db")
        with DurableStore.create(path) as s:
            s.commit([("k", "a", 1)], barrier=1)
        with DurableStore.open(path) as s:
            assert s.get("k", "a") == 1
            assert s.barrier == 1

    def test_open_wrong_format_raises(self, tmp_path):
        path = str(tmp_path / "s.db")
        with DurableStore.create(path) as s:
            s._meta_put_now("store_format_version", "999")
        with pytest.raises(SimulationError, match="format version"):
            DurableStore.open(path)

    def test_open_non_store_file_raises(self, tmp_path):
        path = str(tmp_path / "s.db")
        with open(path, "w") as handle:
            handle.write("this is not sqlite")
        with pytest.raises(SimulationError):
            DurableStore.open(path)

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "s.db")
        with DurableStore.create(path) as s:
            pass
        with pytest.raises(SimulationError):
            s.commit([("k", "a", 1)], barrier=1)

    def test_wal_mode_active(self, store):
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"


class TestCommitAndRead:
    def test_commit_returns_written_count(self, store):
        assert store.commit([("k", "a", 1), ("k", "b", 2)], barrier=1) == 2

    def test_get_missing_returns_none(self, store):
        assert store.get("k", "nope") is None

    def test_upsert_replaces(self, store):
        store.commit([("k", "a", {"v": 1})], barrier=1)
        store.commit([("k", "a", {"v": 2})], barrier=2)
        assert store.get("k", "a") == {"v": 2}
        assert store.count("k") == 1

    def test_deletes(self, store):
        store.commit([("k", "a", 1), ("k", "b", 2)], barrier=1)
        store.commit([], barrier=2, deletes=[("k", "a")])
        assert store.get("k", "a") is None
        assert store.get("k", "b") == 2

    def test_meta_lands_in_same_commit(self, store):
        store.commit([("k", "a", 1)], barrier=3, meta={"extra": "value"})
        assert store.meta_get("extra") == "value"
        assert store.barrier == 3

    def test_meta_require_missing_raises(self, store):
        with pytest.raises(SimulationError, match="missing meta key"):
            store.meta_require("absent")

    def test_iter_kind_sorted_and_filtered(self, store):
        store.commit(
            [("k", "b", 2), ("k", "a", 1), ("other", "z", 9)], barrier=1
        )
        assert list(store.iter_kind("k")) == [("a", 1), ("b", 2)]

    def test_count(self, store):
        store.commit([("k", "a", 1), ("j", "b", 2)], barrier=1)
        assert store.count() == 2
        assert store.count("k") == 1
        assert store.count("missing") == 0

    def test_barrier_default_zero(self, store):
        assert store.barrier == 0

    def test_commit_atomic_on_failure(self, store):
        # An unserialisable value fails mid-batch; nothing may land.
        with pytest.raises((SimulationError, TypeError)):
            store.commit([("k", "good", 1), ("k", "bad", object())], barrier=1)
        assert store.count() == 0
        assert store.barrier == 0

    def test_verify_clean_store(self, store):
        store.commit([("k", "a", 1), ("k", "b", {"x": [1, 2]})], barrier=1)
        assert store.verify() == 2


class TestCorruptionDetection:
    def test_tampered_payload_fails_get(self, store):
        store.commit([("bank", "bank", {"cash": 100})], barrier=1)
        store._conn.execute(
            "UPDATE records SET payload=? WHERE kind='bank'",
            (encode_payload({"cash": 9999}),),
        )
        with pytest.raises(SimulationError, match="failed its checksum"):
            store.get("bank", "bank")

    def test_row_swap_fails(self, store):
        # Copying one row's payload+checksum onto another slot must fail:
        # the checksum binds (kind, key), not just the payload bytes.
        store.commit([("user", "0:1", {"b": 10}), ("user", "0:2", {"b": 99})], barrier=1)
        row = store._conn.execute(
            "SELECT payload, checksum FROM records WHERE key='0:2'"
        ).fetchone()
        store._conn.execute(
            "UPDATE records SET payload=?, checksum=? WHERE key='0:1'", row
        )
        with pytest.raises(SimulationError, match="failed its checksum"):
            store.get("user", "0:1")

    def test_verify_catches_any_bad_record(self, store):
        store.commit([("k", str(i), i) for i in range(10)], barrier=1)
        store._conn.execute(
            "UPDATE records SET payload='[7]' WHERE key='3'"
        )
        with pytest.raises(SimulationError, match="failed its checksum"):
            store.verify()

    def test_verify_reports_page_corruption(self, tmp_path):
        path = str(tmp_path / "s.db")
        with DurableStore.create(path) as s:
            s.commit([("k", str(i), {"pad": "x" * 512}) for i in range(64)],
                     barrier=1)
        # Flip bytes inside a record's padding payload, wherever SQLite
        # put it on disk — guaranteed to hit live cell content.
        with open(path, "rb") as handle:
            blob = handle.read()
        offset = blob.index(b"x" * 256)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"\xff" * 64)
        with pytest.raises(SimulationError):
            with DurableStore.open(path) as s:
                s.verify()
