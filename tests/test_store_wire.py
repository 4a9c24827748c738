"""Round-trip tests for the in-flight payload shapes the store persists."""

import json

import pytest

from repro import records
from repro.chaos.snapshot import (
    ChaosSnapshotReply,
    ChaosSnapshotRequest,
    SnapshotAbort,
)
from repro.core.transfer import Letter
from repro.errors import SimulationError
from repro.records import Field, Record
from repro.sim.workload import Address, TrafficKind
from repro.store.wire import SEND, WIRE


def encode(shape, payload):
    """``payload`` as the JSON a journal stores under ``shape``."""
    return records.dump(Record(Field("p", shape), cls=tuple), (payload,))["p"]


def decode(shape, blob):
    """Check and decode one stored payload (through a JSON round trip)."""
    state = json.loads(json.dumps({"p": blob}))
    return records.load(Record(Field("p", shape), cls=tuple), state, "test", "p")[0]


class TestWireRoundTrip:
    def test_letter(self):
        letter = Letter(
            sender=Address(0, 1),
            recipient=Address(2, 3),
            kind=TrafficKind.NORMAL,
            paid=True,
            content=("subject", "body"),
        )
        assert decode(WIRE, encode(WIRE, letter)) == letter

    def test_letter_without_content(self):
        letter = Letter(
            sender=Address(1, 0),
            recipient=Address(0, 2),
            kind=TrafficKind.SPAM,
            paid=False,
            content=None,
        )
        assert decode(WIRE, encode(WIRE, letter)) == letter

    def test_snapshot_request(self):
        message = ChaosSnapshotRequest(token=4, quiesce=1.5)
        assert decode(WIRE, encode(WIRE, message)) == message

    def test_snapshot_reply(self):
        message = ChaosSnapshotReply(
            token=2, isp_id=1, credit={0: 3, 2: -3}
        )
        assert decode(WIRE, encode(WIRE, message)) == message

    def test_snapshot_abort(self):
        message = SnapshotAbort(token=9)
        assert decode(WIRE, encode(WIRE, message)) == message

    def test_unsupported_payload_type_raises(self):
        with pytest.raises(SimulationError, match="cannot persist"):
            encode(WIRE, object())

    def test_unknown_tag_raises(self):
        with pytest.raises(SimulationError, match="field 'p.t': unknown tag"):
            decode(WIRE, {"t": "mystery"})

    def test_malformed_blob_raises(self):
        with pytest.raises(SimulationError, match="'p.recipient': missing"):
            decode(WIRE, {"t": "letter", "sender": [0]})


class TestSendRoundTrip:
    def test_deferred_send(self):
        payload = (
            Address(0, 1),
            Address(1, 2),
            TrafficKind.NORMAL,
            ("hello",),
        )
        assert decode(SEND, encode(SEND, payload)) == payload

    def test_deferred_send_without_content(self):
        payload = (Address(2, 0), Address(0, 0), TrafficKind.SPAM, None)
        assert decode(SEND, encode(SEND, payload)) == payload

    def test_not_a_tuple_raises(self):
        with pytest.raises(SimulationError, match="cannot persist"):
            encode(SEND, "not a tuple")
        with pytest.raises(SimulationError, match="cannot persist"):
            encode(SEND, (Address(0, 0), Address(0, 1), TrafficKind.SPAM))

    def test_malformed_blob_raises(self):
        with pytest.raises(SimulationError, match="'p.recipient': missing"):
            decode(SEND, {"sender": [0, 0]})
