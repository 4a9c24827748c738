"""Corruption fuzzing: every mutation must fail loudly, never mis-load.

The contract under test is the one that matters for money: a corrupted
store may only ever produce a ``SimulationError`` — loading a *wrong*
ledger silently is the single unacceptable outcome. Every restart path
reads a store, and each gets a fuzz input: a crashed chaos node's
records, the service's store file, and a cluster shard's store file.
Mutations are truncations, bit flips and extra bytes; a restart either
raises or — for file mutations that happen to hit dead space — yields a
ledger identical to the pristine one.
"""

import random

import pytest

from conftest import journaling_shard
from repro.chaos.deployment import ChaosDeployment
from repro.cluster import ShardWorker
from repro.core import ZmailNetwork
from repro.errors import SimulationError
from repro.sim import Address
from repro.store import (
    DurableStore,
    attach_tracker,
    commit_network,
    durable_digest,
    init_store,
    restore_network,
)
from repro.store.codec import encode_payload

N_MUTATIONS = 60


def _traffic(network):
    tracker = attach_tracker(network)
    for i in range(30):
        network.send(Address(i % 3, i % 4), Address((i + 1) % 3, (i + 2) % 4))
    return tracker


def _mutations(rng, blob: bytes):
    """Yield corrupted variants: truncations, bit flips, insertions."""
    for _ in range(N_MUTATIONS // 3):
        cut = rng.randrange(len(blob))
        yield blob[:cut]
    for _ in range(N_MUTATIONS // 3):
        pos = rng.randrange(len(blob))
        flipped = blob[pos] ^ (1 << rng.randrange(8))
        yield blob[:pos] + bytes([flipped]) + blob[pos + 1 :]
    for _ in range(N_MUTATIONS // 3):
        pos = rng.randrange(len(blob) + 1)
        junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
        yield blob[:pos] + junk + blob[pos:]


def _assert_never_wrong(blob, seed, restored_digest, pristine):
    """Each mutant of a store file must fail its restart loudly, or
    restore the pristine ledger (a mutation can land in slack space)."""
    raised = clean = 0
    for index, mutant in enumerate(_mutations(random.Random(seed), blob)):
        try:
            digest = restored_digest(index, mutant)
        except SimulationError:
            raised += 1
        else:
            assert digest == pristine, (
                f"mutation {index} silently produced a wrong ledger"
            )
            clean += 1
    assert raised + clean == N_MUTATIONS
    assert raised > 0, "no mutation was even detected — fuzz too weak"


def _crashed(node, seed):
    """A chaos node crashed after some traffic; returns its controller."""
    deployment = ChaosDeployment(
        n_isps=3, users_per_isp=4, seed=seed, faults=None
    )
    _traffic(deployment.network)
    deployment.crash_controller.crash(node)
    return deployment.crash_controller


def _payload(store, kind, key, new=None):
    """Read a record's payload, or overwrite it behind the store's back."""
    where = "WHERE kind=? AND key=?"
    if new is not None:
        store._conn.execute(f"UPDATE records SET payload=? {where}",
                            (new, kind, key))
    return store._conn.execute(f"SELECT payload FROM records {where}",
                               (kind, key)).fetchone()[0]


class TestSealedJournalFuzz:
    """Mutating a record the crash controller committed must refuse the
    node's restart, never rebuild wrong state."""

    def _fuzz_record(self, node, kind, key, seed):
        controller = _crashed(node, seed)
        original = _payload(controller.store, kind, key).encode("utf-8")
        raised = 0
        for mutant in _mutations(random.Random(1234), original):
            try:
                text = mutant.decode("utf-8")
            except UnicodeDecodeError:
                raised += 1  # unreadable is as loud as it gets
                continue
            _payload(controller.store, kind, key, new=text)
            with pytest.raises(SimulationError):
                controller.restart(node)
            raised += 1
        assert raised == N_MUTATIONS

    def test_isp_journal(self):
        self._fuzz_record("isp0", "isp", "0", seed=77)

    def test_user_record(self):
        self._fuzz_record("isp0", "user", "0:1", seed=80)

    def test_bank_journal(self):
        self._fuzz_record("bank", "bank", "bank", seed=78)

    def test_endpoint_record(self):
        self._fuzz_record("isp1", "endpoint", "isp1", seed=79)

    def test_payload_digit_flip_caught(self):
        # The classic checksumless failure: one digit changed in a value
        # that still parses as valid JSON. The record checksum must catch
        # what a parser cannot.
        controller = _crashed("bank", seed=5)
        payload = _payload(controller.store, "bank", "bank")
        digits = [i for i, ch in enumerate(payload) if ch.isdigit()]
        for index in digits:
            new_digit = "3" if payload[index] != "3" else "4"
            _payload(controller.store, "bank", "bank",
                     new=payload[:index] + new_digit + payload[index + 1 :])
            with pytest.raises(SimulationError, match="checksum"):
                controller.restart("bank")
        assert len(digits) > 10


class TestStoreFileFuzz:
    """Mutating the SQLite file: raise, or load the *identical* ledger.

    SQLite files contain free pages and slack space, so a mutation can
    land somewhere harmless; the assertion is therefore two-sided —
    either the load fails loudly or the restored network is
    digest-identical to the pristine one. A wrong ledger fails the test.
    """

    @pytest.fixture
    def populated(self, tmp_path):
        path = str(tmp_path / "fuzz.db")
        network = ZmailNetwork(n_isps=3, users_per_isp=4, seed=99)
        store = DurableStore.create(path)
        init_store(store, network)
        tracker = _traffic(network)
        commit_network(store, network, tracker, barrier=1)
        store.close()
        return path, durable_digest(network)

    def test_fuzzed_store_never_wrong(self, tmp_path, populated):
        path, pristine = populated

        def restored_digest(index, mutant):
            target = tmp_path / f"mutant{index}.db"
            target.write_bytes(mutant)
            with DurableStore.open(str(target)) as store:
                store.verify()
                return durable_digest(restore_network(store))

        with open(path, "rb") as handle:
            blob = handle.read()
        _assert_never_wrong(blob, 4321, restored_digest, pristine)

    def test_truncated_store_raises(self, populated):
        path, _ = populated
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(SimulationError):
            with DurableStore.open(path) as store:
                store.verify()
                restore_network(store)


class TestShardStoreCorruption:
    """A respawned cluster shard restarts from its store, or refuses to.

    The shard ran five barriers (midnight at the last) and died; what is
    left is ``shard0.db``.
    """

    @pytest.fixture
    def dead_shard(self, tmp_path):
        spec = journaling_shard(tmp_path / "journal")
        worker = ShardWorker(spec)
        for cycle in range(5):
            worker.handle_inputs(
                {"cycle": cycle, "batches": [], "reconcile": False,
                 "final": False}
            )
        worker._store.close()  # flush the WAL into the one file
        return spec, durable_digest(worker.network)

    def test_respawn_restores_the_live_ledger(self, dead_shard):
        # Users reset at midnight but idle since the barrier before it
        # must still reach the store.
        spec, live = dead_shard
        assert durable_digest(ShardWorker(spec).network) == live

    def test_fuzzed_shard_store_never_wrong(self, tmp_path, dead_shard):
        spec, pristine = dead_shard

        def restored_digest(index, mutant):
            mutant_spec = journaling_shard(tmp_path / f"mutant{index}")
            with open(mutant_spec.journal_path, "wb") as handle:
                handle.write(mutant)
            return durable_digest(ShardWorker(mutant_spec).network)

        with open(spec.journal_path, "rb") as handle:
            blob = handle.read()
        _assert_never_wrong(blob, 2468, restored_digest, pristine)

    def test_moved_epennies_refuse_restart(self, dead_shard):
        # Five e-pennies moved between two users of one ISP: the ledger
        # still conserves value, so only the record checksums catch it.
        spec, _ = dead_shard
        with DurableStore.open(spec.journal_path) as store:
            keys = [k for k, _ in store.iter_kind("user") if k[:2] == "0:"][:2]
            for key, delta in zip(keys, (-5, 5)):
                state = store.get("user", key)
                state["balance"] += delta
                _payload(store, "user", key, new=encode_payload(state))
        with pytest.raises(SimulationError, match="checksum"):
            ShardWorker(spec)

    def test_truncated_shard_store_refuses_restart(self, dead_shard):
        spec, _ = dead_shard
        with open(spec.journal_path, "rb") as handle:
            blob = handle.read()
        with open(spec.journal_path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(SimulationError):
            ShardWorker(spec)
