"""Counted ledger events read exactly like emitted ones.

A counting recorder (a ``DigestSink`` whose accumulators all drop ``t``
and ``seq``) takes the ledger emit sites' key tuples
(``TraceRecorder.record``) and the columnar executor's packed keys
(``_LedgerTally``) instead of event dicts. The property feeds random
ledger batches both ways, the two counted forms mixed in one run, and
requires every read — ``count``, ``digest()``, ``state_dict()``, both
sides of ``merge()`` and ``events_emitted`` — to equal the per-event
path's, and ``load_state`` to drop what was counted but not yet read.
"""

from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.columnar.executor import _LedgerTally, _emit_batch
from repro.columnar.plan import KIND_ORDER
from repro.core.protocol import (
    deliver_event,
    send_event,
    topup_event,
    trade_event,
)
from repro.core.transfer import SendStatus
from repro.obs.trace import AdditiveMultisetDigest, DigestSink, TraceRecorder
from repro.scenario import INVARIANT_EVENT_TYPES

N_ISPS, USERS_PER_ISP, TOP = 3, 4, 5
N_USERS = N_ISPS * USERS_PER_ISP
KINDS = tuple(kind.value for kind in KIND_ORDER)
STATUSES = tuple(status.value for status in SendStatus)


class _SmallTally(_LedgerTally):
    """Compacts every few keys, to interleave compactions with reads."""

    HELD_CAP = 3


class _SmallCapRecorder(TraceRecorder):
    """Drains its count table every few distinct keys."""

    __slots__ = ()
    COUNTS_CAP = 2


class _PerEvent:
    """Passes each emitted event to a DigestSink. Not being one itself,
    it keeps its recorder on the per-event path (``counts is None``)."""

    def __init__(self, sink):
        self._sink = sink

    def accept(self, event, line):
        self._sink.accept(event, line)


def _network():
    return SimpleNamespace(
        n_isps=N_ISPS,
        users_per_isp=USERS_PER_ISP,
        config=SimpleNamespace(auto_topup_amount=TOP),
        _direct_now=0.0,
    )


class _Side:
    """One way of recording: counted, or emitted into a DigestSink."""

    def __init__(self, counted, tally_cls=_LedgerTally, small=False):
        self.acc = AdditiveMultisetDigest(include_types=INVARIANT_EVENT_TYPES)
        sink = DigestSink(self.acc)
        self.network = _network()
        recorder_cls = _SmallCapRecorder if small else TraceRecorder
        self.recorder = recorder_cls(sink=sink if counted else _PerEvent(sink))
        assert (self.recorder.counts is not None) is counted
        self.tally = None
        if counted:
            self.tally = tally_cls(np, self.network)
            self.recorder.add_tally(self.tally.fold)

    def feed(self, op):
        recorder = self.recorder
        if op[0] == "record":
            recorder.record(*op[1])
        elif op[0] == "batch":
            senders, recipients, kinds, status, topups = (
                np.array(column, dtype=dtype)
                for column, dtype in zip(
                    zip(*op[1]),
                    (np.int64, np.int64, np.uint8, np.uint8, np.int64),
                )
            )
            chunk = SimpleNamespace(
                times=np.arange(len(senders), dtype=np.float64),
                senders=senders, recipients=recipients, kinds=kinds,
            )
            _emit_batch(
                self.network, recorder, self.tally, chunk, 0, len(senders),
                status, topups, USERS_PER_ISP,
            )
        else:  # a non-ledger event, emitted on both paths
            recorder.emit("midnight", day=op[1])


ISP = st.integers(0, N_ISPS - 1)
USER = st.integers(0, USERS_PER_ISP - 1)
RECORDS = st.one_of(
    st.tuples(st.just(send_event), ISP, USER, ISP, USER,
              st.sampled_from(KINDS), st.sampled_from(STATUSES)),
    st.tuples(st.just(deliver_event), ISP, USER, ISP, USER,
              st.sampled_from(KINDS), st.booleans()),
    st.tuples(st.just(topup_event), ISP, USER, st.integers(1, TOP)),
    st.tuples(st.just(trade_event), ISP, st.sampled_from(("buy", "sell")),
              st.integers(1, 10**6)),
)
#: One columnar message: sender gid, recipient gid, kind code, outcome
#: code (every one of the executor's six, §5 unpaid and discarded
#: included) and its top-up amount (0: none).
MESSAGES = st.tuples(
    st.integers(0, N_USERS - 1), st.integers(0, N_USERS - 1),
    st.integers(0, len(KINDS) - 1), st.integers(0, 5), st.integers(0, TOP),
)
FEEDS = st.one_of(
    st.tuples(st.just("record"), RECORDS),
    st.tuples(st.just("batch"), st.lists(MESSAGES, min_size=1, max_size=12)),
    st.tuples(st.just("noise"), st.integers(0, 3)),
)
OPS = st.lists(
    st.one_of(
        FEEDS,
        st.sampled_from([("count",), ("digest",), ("state",), ("emitted",)]),
        st.tuples(st.just("merge"), st.lists(FEEDS, max_size=4)),
        st.tuples(st.just("roundtrip"), st.lists(FEEDS, max_size=4)),
    ),
    max_size=40,
)


def _assert_same(counted, emitted):
    assert counted.acc.count == emitted.acc.count
    assert counted.recorder.events_emitted == emitted.recorder.events_emitted
    assert counted.acc.state_dict() == emitted.acc.state_dict()
    assert counted.acc.digest() == emitted.acc.digest()


def _run(ops, tally_cls, small=False):
    counted, emitted = _Side(True, tally_cls, small), _Side(False)
    for op in ops:
        if op[0] in ("record", "batch", "noise"):
            counted.feed(op)
            emitted.feed(op)
        elif op[0] == "count":
            assert counted.acc.count == emitted.acc.count
        elif op[0] == "digest":
            assert counted.acc.digest() == emitted.acc.digest()
        elif op[0] == "state":
            assert counted.acc.state_dict() == emitted.acc.state_dict()
        elif op[0] == "emitted":
            assert (
                counted.recorder.events_emitted
                == emitted.recorder.events_emitted
            )
        elif op[0] == "merge":
            # Counted events on both sides of the merge: the absorbing
            # side's own, and the other side's.
            other_counted = _Side(True, tally_cls, small)
            other_emitted = _Side(False)
            for feed in op[1]:
                other_counted.feed(feed)
                other_emitted.feed(feed)
            counted.acc.merge(other_counted.acc)
            emitted.acc.merge(other_emitted.acc)
            assert other_counted.acc.state_dict() == other_emitted.acc.state_dict()
        else:
            # A journal round trip: what was counted after the state was
            # taken and not read since is dropped by load_state.
            state = counted.acc.state_dict()
            assert state == emitted.acc.state_dict()
            for feed in op[1]:
                counted.feed(feed)
                emitted.feed(feed)
            counted.acc.load_state(state)
            emitted.acc.load_state(state)
            assert counted.acc.state_dict() == state
    _assert_same(counted, emitted)
    return counted


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    ops=OPS,
    tally_cls=st.sampled_from([_LedgerTally, _SmallTally]),
    small=st.booleans(),
)
def test_counted_ledger_equals_emitted_ledger(ops, tally_cls, small):
    _run(ops, tally_cls, small)


def test_every_ledger_event_kind_counts_like_its_emit():
    # Each send outcome (both deliver ok values, §5 unpaid and discarded
    # mail among them), top-ups, both trade ops and every direct emit
    # site's event, twice over so that multiplicities matter.
    messages = [
        (s, (s * 5 + 1) % N_USERS, s % len(KINDS), outcome, (s + outcome) % 2 * TOP)
        for s in range(N_USERS)
        for outcome in range(6)
    ]
    records = [
        (send_event, 0, 1, 2, 3, "spam", status) for status in STATUSES
    ] + [
        (deliver_event, 1, 0, 1, 2, "normal", True),
        (deliver_event, 1, 0, 1, 2, "normal", False),
        (topup_event, 2, 3, TOP),
        (trade_event, 0, "buy", 40),
        (trade_event, 0, "sell", 40),
    ]
    feeds = [("batch", messages)] + [("record", record) for record in records]
    counted = _run(feeds * 2 + [("noise", 1)], _SmallTally, small=True)
    reduced = {
        (event["type"], event.get("status"), event.get("ok"), event.get("op"))
        for event in (key[0](*key[1:]) for key in _counted_keys(feeds))
    }
    assert {("deliver", None, ok, None) for ok in (True, False)} <= reduced
    assert {("send", status, None, None) for status in STATUSES} <= reduced
    assert {("bank.trade", None, None, op) for op in ("buy", "sell")} <= reduced
    assert ("topup", None, None, None) in reduced
    assert counted.recorder.events_emitted == counted.acc.count + 1


def _counted_keys(feeds):
    """The count table the feeds build, before any drain."""
    side = _Side(True)
    for feed in feeds:
        side.feed(feed)
    table = dict(side.recorder.counts)
    side.tally.fold(table)
    return table
