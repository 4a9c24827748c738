"""Every restart record refuses a well-formed record with a wrong value.

A hypothesis property over the records that a soak run with crashes
(``examples/scenarios/soak.yaml`` on a file store) and a served store
with admission on really write. It changes one field of one record (a
type swap, a bool, a float, a negative value, a missing key or an extra
key), re-seals the record through ``store.commit`` and restarts from
the store. The restart must raise ``SimulationError`` naming that field.
The checksums cannot catch these records: they are sealed as written.

Sites are found by walking each record with its own field table, so a
mutation is only drawn where the table says the value is wrong (a float
where a float belongs is not one). Wire payload tags that the soak's
crash instants do not hold, and a queued deferred send, are added to
the crashed node's records by hand.
"""

import asyncio
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_plan
from repro import records
from repro.chaos.campaign import deploy
from repro.chaos.snapshot import (
    ChaosSnapshotReply,
    ChaosSnapshotRequest,
    SnapshotAbort,
)
from repro.core import ZmailNetwork, persistence
from repro.core.bank import BANK
from repro.core.overload import ADMISSION, OverloadConfig, ShedClass
from repro.core.transfer import Letter
from repro.errors import SimulationError
from repro.records import PAYLOAD, Codec, List, Map, Nullable, Record, Union
from repro.sim.reliable import ENDPOINT
from repro.sim.workload import Address, TrafficKind
from repro.smtp.client import SMTPClient
from repro.smtp.gateway import PENDING
from repro.smtp.message import MailMessage
from repro.smtp.transport import Envelope
from repro.store import DurableStore, init_store, restore_network
from repro.store.network import META, NET
from repro.store.service import CLOCK, OVERLOAD, ZmailService, run_selftest
from repro.store.soak import run_soak
from repro.store.wire import SEND, WIRE

SERVE_OVERLOAD = OverloadConfig(
    admit_rate=1.0, admit_burst=2, queue_capacity=16, retry_base=5.0,
    retry_backoff=2.0, retry_max_interval=60.0, max_retries=8,
)
MISSING = object()

#: ``(record, payload shape)`` of each store kind a restart reads.
TABLES = {
    "user": (persistence.USER, None),
    "isp": (persistence.ISP_AGGREGATE, None),
    "bank": (BANK, None),
    "net": (NET, None),
    "endpoint": (ENDPOINT, WIRE),
    "admission": (ADMISSION, SEND),
}


def table_of(kind, key):
    """The record and payload shape a restart reads ``(kind, key)`` with."""
    if kind == "svc":
        return {"clock": (CLOCK, None), "overload": (OVERLOAD, None)}.get(
            key, (ADMISSION, PENDING)
        )
    return TABLES[kind]


# -- finding the sites a mutation must be refused at ---------------------------------


def _scalar_bad(shape, value, low):
    bad = {int: ["7", True, 0.5], float: ["7.0", True], bool: ["true", 1],
           str: [7]}[shape]
    if low is not None:
        bad.append(-1)
    return bad


def sites(shape, value, keys, low, payload):
    """Yield ``(keys, bad value or MISSING)``: one refused change each."""
    if shape in (int, float, bool, str):
        for bad in _scalar_bad(shape, value, low):
            yield keys, bad
    elif isinstance(shape, Record):
        yield from _record_sites(shape, value, keys, payload)
    elif isinstance(shape, Union):
        yield keys + ["t"], "mystery"
        yield from _record_sites(shape.variants[value["t"]], value, keys, payload)
    elif isinstance(shape, Map):
        yield keys, []
        yield keys + ["x"], 0
        for k, item in value.items():
            yield from sites(shape.item, item, keys + [k], low, payload)
    elif isinstance(shape, List):
        yield keys, {}
        for i, item in enumerate(value):
            yield from sites(shape.item, item, keys + [i], low, payload)
    elif isinstance(shape, Nullable):
        if value is None:
            yield keys, 7 if shape.item is not int else "7"
        else:
            yield from sites(shape.item, value, keys, low, payload)
    elif isinstance(shape, Codec):
        if shape.shape is str:
            yield keys, 7  # any string may be a message body
        else:
            yield from sites(shape.shape, value, keys, low, payload)
    elif shape is PAYLOAD:
        yield from sites(payload, value, keys, None, None)
    else:  # an Enum
        yield keys, True
        yield keys, "mystery" if isinstance(value, int) else 99


def _record_sites(record, value, keys, payload):
    for f in record.fields:
        yield keys + [f.name], MISSING
        yield from sites(f.shape, value[f.name], keys + [f.name], f.low, payload)
    yield keys + ["zz_extra"], 0


def path_of(keys):
    path = ""
    for k in keys:
        if isinstance(k, int):
            path += f"[{k}]"
        else:
            path = f"{path}.{k}" if path else k
    return path


def mutate(state, keys, bad):
    state = json.loads(json.dumps(state))
    node = state
    for k in keys[:-1]:
        node = node[k]
    if bad is MISSING:
        del node[keys[-1]]
    else:
        node[keys[-1]] = bad
    return state


def wire(payload):
    """``payload`` as the JSON an endpoint journal stores."""
    blob = records.dump(records.Record(records.Field("p", WIRE)), (payload,))
    return blob["p"]


# -- the stores ----------------------------------------------------------------------


class FileSource:
    """A closed store file; each trial restores a mutated copy of it."""

    def __init__(self, path, restore, scratch):
        self.path, self.restore, self.scratch = path, restore, scratch
        self.trials = 0
        with DurableStore.open(path) as store:
            self.records = {
                (kind, key): payload
                for kind, key, payload in store._conn.execute(
                    "SELECT kind, key, payload FROM records"
                )
            }
            self.meta = {f.name: json.loads(store.meta_require(f.name))
                         for f in META.fields}
            self.config = json.loads(store.meta_require("config"))

    def trial(self, kind, key, state):
        self.trials += 1
        copy = str(self.scratch / f"trial{self.trials}.db")
        shutil.copy(self.path, copy)
        with DurableStore.open(copy) as store:
            if kind == "meta":
                if state is MISSING:
                    store._conn.execute("DELETE FROM meta WHERE key=?", (key,))
                else:
                    store.commit([], barrier=store.barrier,
                                 meta={key: json.dumps(state, sort_keys=True)})
            else:
                store.commit([(kind, key, state)], barrier=store.barrier)
        self.restore(copy)


class CrashSource:
    """A soak deployment paused while ``node`` is down."""

    def __init__(self, plan, until, node, path):
        self.store = DurableStore.create(path)
        deployment, requests = deploy(plan, seed=plan.seed, store=self.store)
        deployment.run(requests, until=until, drain_window=0.0)
        assert deployment.net.is_down(node)
        self.node = node
        self.controller = deployment.crash_controller

    def trial(self, kind, key, state):
        pristine = self.store.get(kind, key)
        self.store.commit([(kind, key, state)], barrier=self.store.barrier)
        try:
            self.controller.restart(self.node)
        finally:
            self.store.commit([(kind, key, pristine)], barrier=self.store.barrier)


def _serve(path):
    store = DurableStore.create(path)
    init_store(store, ZmailNetwork(n_isps=2, users_per_isp=4, seed=5))

    async def run():
        service = ZmailService(store, overload=SERVE_OVERLOAD)
        await service.start()
        host, port = service.addresses[0]
        client = SMTPClient(host, port)
        await client.connect()
        try:
            for i in range(6):
                message = MailMessage.compose(
                    sender="user0@isp0.example",
                    recipient="user1@isp1.example",
                    subject=f"m{i}", body="hello",
                )
                await client.send(Envelope(
                    "user0@isp0.example", "user1@isp1.example", message
                ))
        finally:
            await client.quit()
        await service.stop()

    asyncio.run(run())
    store.close()


def _restore_network(path):
    with DurableStore.open(path) as store:
        restore_network(store)


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """``{label: [(source, kind, key, state, keys, bad), ...]}``: each
    entry a refused change at ``keys`` of the record ``(kind, key)``."""
    tmp = tmp_path_factory.mktemp("records")
    plan = load_plan("soak.yaml")
    run_soak(plan, store_path=str(tmp / "soak.db"))
    soak = FileSource(str(tmp / "soak.db"), _restore_network, tmp)
    _serve(str(tmp / "served.db"))
    served = FileSource(str(tmp / "served.db"), run_selftest, tmp)
    isp1 = CrashSource(plan, 7230.0, "isp1", str(tmp / "isp1.db"))
    bank = CrashSource(plan, 14430.0, "bank", str(tmp / "bank.db"))
    out = {}

    def add(label, source, kind, key, state, record, payload=None,
            keep=lambda keys: True):
        out.setdefault(label, []).extend(
            (source, kind, key, state, keys, bad)
            for keys, bad in sites(record, state, [], None, payload)
            if keep(keys)
        )

    for source in (soak, served):
        for (kind, key), text in sorted(source.records.items()):
            label = f"svc-{key.rstrip('0123456789')}" if kind == "svc" else kind
            add(label, source, kind, key, json.loads(text), *table_of(kind, key))
    # Each meta key holds one JSON value; the config is a whole record.
    for f in META.fields:
        out.setdefault("meta", []).append(
            (soak, "meta", f.name, None, [], MISSING)
        )
        out["meta"].extend(
            (soak, "meta", f.name, soak.meta[f.name], keys, bad)
            for keys, bad in sites(f.shape, soak.meta[f.name], [], f.low, None)
        )
    add("config", soak, "meta", "config", soak.config, persistence.CONFIG)
    # The rows each crash wrote that its restart reads (the bank's store
    # also keeps the rows of isp1's earlier crash).
    for source, kinds in ((isp1, ("isp", "user", "endpoint", "admission")),
                          (bank, ("bank", "endpoint"))):
        for kind in kinds:
            for key, state in source.store.iter_kind(kind):
                add(f"{kind}-{source.node}", source, kind, key, state,
                    *table_of(kind, key))

    # Tags the crash instants hold no frame of, and a queued send.
    frames = {
        "letter": Letter(Address(0, 1), Address(1, 2), TrafficKind.NORMAL,
                         True, ("a", "b")),
        "snap-req": ChaosSnapshotRequest(token=4, quiesce=1.5),
        "snap-rep": ChaosSnapshotReply(token=4, isp_id=1, credit={0: 3}),
        "snap-abort": SnapshotAbort(token=4),
    }
    frame_keys = ["outbound", "isp0", "unacked", "999"]
    for tag, frame in frames.items():
        state = isp1.store.get("endpoint", "isp1")
        state["outbound"]["isp0"]["unacked"]["999"] = wire(frame)
        add(f"wire-{tag}", isp1, "endpoint", "isp1", state, ENDPOINT, WIRE,
            keep=lambda keys: keys[:4] == frame_keys)
    state = isp1.store.get("admission", "isp1")
    state["queue"]["items"] = [{
        "payload": records.dump(SEND, (
            Address(1, 0), Address(2, 3), TrafficKind.NORMAL, ("w",)
        )),
        "shed_class": int(ShedClass.PAID), "due": 7300.0, "seq": 1,
        "attempts": 1, "enqueued_at": 7200.0,
    }]
    add("deferred-send", isp1, "admission", "isp1", state, ADMISSION, SEND,
        keep=lambda keys: keys[:2] == ["queue", "items"])
    return out


LABELS = [
    "user", "isp", "bank", "net", "meta", "config", "svc-clock", "svc-overload",
    "svc-gateway", "isp-isp1", "user-isp1", "bank-bank", "endpoint-isp1",
    "endpoint-bank", "admission-isp1", "wire-letter", "wire-snap-req",
    "wire-snap-rep", "wire-snap-abort", "deferred-send",
]


def test_every_record_kind_has_sites(cases):
    assert sorted(cases) == sorted(LABELS)


@pytest.mark.parametrize("label", LABELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_wrong_field_refuses_restart(cases, label, data):
    source, kind, key, state, keys, bad = data.draw(st.sampled_from(cases[label]))
    mutated = mutate(state, keys, bad) if keys else bad
    # A meta key is named by the key; every other field by its path.
    name = path_of([key] + keys) if kind == "meta" and key != "config" \
        else path_of(keys)
    with pytest.raises(SimulationError) as caught:
        source.trial(kind, key, mutated)
    assert f"'{name}'" in str(caught.value), (bad, str(caught.value))
