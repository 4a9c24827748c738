"""Unit tests for the trace recorder, sinks, digests and event schema."""

import hashlib
import io
import json

import pytest

from repro.errors import SimulationError
from repro.obs.schema import (
    EVENT_TYPES,
    LEDGER_EVENT_TYPES,
    TraceSchemaError,
    validate_event,
    validate_trace_lines,
)
from repro.obs.trace import (
    NULL_TRACER,
    AdditiveMultisetDigest,
    DigestSink,
    JsonlSink,
    ListSink,
    TraceRecorder,
    canonical_line,
)


class TestCanonicalLine:
    def test_sorted_compact(self):
        assert canonical_line({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_key_order_irrelevant(self):
        assert canonical_line({"x": 1, "y": 2}) == canonical_line({"y": 2, "x": 1})


class TestTraceRecorder:
    def test_emit_assigns_sequence_and_time(self):
        sink = ListSink()
        recorder = TraceRecorder(sink=sink, clock=lambda: 42.5)
        recorder.emit("crash", node="isp0")
        recorder.emit("restart", node="isp0")
        events = sink.events()
        assert [e["seq"] for e in events] == [1, 2]
        assert all(e["t"] == 42.5 for e in events)
        assert recorder.events_emitted == 2

    def test_no_clock_stamps_zero(self):
        sink = ListSink()
        recorder = TraceRecorder(sink=sink)
        recorder.emit("crash", node="bank")
        assert sink.events()[0]["t"] == 0.0

    def test_emit_at_explicit_time(self):
        sink = ListSink()
        recorder = TraceRecorder(sink=sink, clock=lambda: 1.0)
        recorder.emit_at(99.0, "crash", node="bank")
        assert sink.events()[0]["t"] == 99.0

    def test_disabled_emits_nothing(self):
        sink = ListSink()
        recorder = TraceRecorder(sink=sink, enabled=False)
        recorder.emit("crash", node="isp0")
        recorder.emit_at(1.0, "crash", node="isp0")
        assert len(sink) == 0
        assert recorder.events_emitted == 0

    def test_digest_tracks_lines_without_a_sink(self):
        with_sink = TraceRecorder(sink=ListSink(), clock=lambda: 1.0)
        sinkless = TraceRecorder(clock=lambda: 1.0)
        for recorder in (with_sink, sinkless):
            recorder.emit("crash", node="isp1")
            recorder.emit("restart", node="isp1")
        assert with_sink.digest() == sinkless.digest()

    def test_digest_differs_on_any_field_change(self):
        a = TraceRecorder()
        b = TraceRecorder()
        a.emit("crash", node="isp0")
        b.emit("crash", node="isp1")
        assert a.digest() != b.digest()

    def test_null_tracer_is_shared_and_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.clock is None
        NULL_TRACER.emit("crash", node="x")
        assert NULL_TRACER.events_emitted == 0


class TestSinks:
    def test_jsonl_sink_writes_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            recorder = TraceRecorder(sink=sink, clock=lambda: 2.0)
            recorder.emit("crash", node="isp0")
            recorder.emit("restart", node="isp0")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert validate_trace_lines(lines) == 2

    def test_jsonl_sink_does_not_close_caller_file(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        TraceRecorder(sink=sink).emit("crash", node="bank")
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["node"] == "bank"


class TestMultisetDigest:
    """The ledger multiset digest as a run computes it: through a DigestSink."""

    @staticmethod
    def _digest(events, **kwargs):
        acc = AdditiveMultisetDigest(**kwargs)
        sink = DigestSink(acc)
        for event in events:
            sink.accept(event, canonical_line(event))
        return acc.digest()

    def test_order_insensitive(self):
        events = [
            {"t": 1.0, "seq": 1, "type": "send", "src": "a", "dst": "b"},
            {"t": 2.0, "seq": 2, "type": "deliver", "src": "a", "dst": "b"},
        ]
        assert self._digest(events) == self._digest(list(reversed(events)))

    def test_time_and_seq_excluded_by_default(self):
        early = [{"t": 1.0, "seq": 1, "type": "send", "src": "a"}]
        late = [{"t": 9.0, "seq": 7, "type": "send", "src": "a"}]
        assert self._digest(early) == self._digest(late)

    def test_multiplicity_matters(self):
        one = [{"t": 0, "seq": 1, "type": "send", "src": "a"}]
        two = one + [{"t": 0, "seq": 2, "type": "send", "src": "a"}]
        assert self._digest(one) != self._digest(two)

    def test_include_types_filters(self):
        events = [
            {"t": 0, "seq": 1, "type": "send", "src": "a"},
            {"t": 0, "seq": 2, "type": "net.drop", "src": "a", "dst": "b"},
        ]
        ledger_only = self._digest(events, include_types=LEDGER_EVENT_TYPES)
        assert ledger_only == self._digest(
            events[:1], include_types=LEDGER_EVENT_TYPES
        )
        assert ledger_only != self._digest(events)


class TestAdditiveMultisetDigest:
    EVENTS = [
        {"t": 1.0, "seq": 1, "type": "send", "src": "a", "dst": "b"},
        {"t": 2.0, "seq": 2, "type": "deliver", "src": "a", "dst": "b"},
        {"t": 3.0, "seq": 3, "type": "midnight", "day": 1},
        {"t": 4.0, "seq": 4, "type": "send", "src": "a", "dst": "b"},
    ]

    def _absorb(self, events, **kwargs):
        acc = AdditiveMultisetDigest(**kwargs)
        for event in events:
            acc.add(event)
        return acc

    def test_order_insensitive_and_accepts_lines(self):
        # Events read back from canonical lines (a JSONL trace file)
        # digest the same as the live dicts they were written from.
        forward = self._absorb(self.EVENTS)
        backward = self._absorb(
            [json.loads(canonical_line(e)) for e in reversed(self.EVENTS)]
        )
        assert forward.digest() == backward.digest()
        assert forward.count == backward.count == 4

    def test_multiplicity_matters(self):
        one = self._absorb(self.EVENTS[:1])
        two = self._absorb([self.EVENTS[0], self.EVENTS[3]])
        assert one.digest() != two.digest()

    def test_merge_equals_absorbing_the_union(self):
        left = self._absorb(self.EVENTS[:2])
        right = self._absorb(self.EVENTS[2:])
        left.merge(right)
        assert left.digest() == self._absorb(self.EVENTS).digest()
        assert left.count == 4

    def test_state_roundtrip_resumes_exactly(self):
        acc = self._absorb(self.EVENTS[:2])
        resumed = AdditiveMultisetDigest()
        resumed.load_state(acc.state_dict())
        for event in self.EVENTS[2:]:
            acc.add(event)
            resumed.add(event)
        assert resumed.digest() == acc.digest()

    def test_include_types_allow_list(self):
        sends = self._absorb(self.EVENTS, include_types={"send"})
        assert sends.count == 2
        assert sends.digest() == self._absorb(
            [self.EVENTS[0], self.EVENTS[3]], include_types={"send"}
        ).digest()

    def test_exclude_types_deny_list(self):
        no_midnight = self._absorb(self.EVENTS, exclude_types=("midnight",))
        assert no_midnight.count == 3
        assert no_midnight.digest() == self._absorb(
            [e for e in self.EVENTS if e["type"] != "midnight"]
        ).digest()

    def test_exclude_fields_defaults_drop_time_and_seq(self):
        early = self._absorb([{"t": 1.0, "seq": 1, "type": "send", "src": "a"}])
        late = self._absorb([{"t": 9.0, "seq": 7, "type": "send", "src": "a"}])
        assert early.digest() == late.digest()
        kept = self._absorb(
            [{"t": 1.0, "seq": 1, "type": "send", "src": "a"}],
            exclude_fields=(),
        )
        assert kept.digest() != early.digest()

    def test_load_state_accepts_the_largest_sum(self):
        acc = AdditiveMultisetDigest()
        acc.load_state({"sum": "f" * 64, "count": 0})
        assert acc.state_dict() == {"sum": "f" * 64, "count": 0}

    @pytest.mark.parametrize(
        "state, field",
        [
            ({"sum": "-1", "count": 1}, "sum"),
            ({"sum": "1" * 65, "count": 1}, "sum"),
            ({"sum": "12g4", "count": 1}, "sum"),
            ({"sum": "ff", "count": -1}, "count"),
            (None, "sum"),
            ([], "sum"),
            ({"count": 1}, "sum"),
            ({"sum": "ff"}, "count"),
        ],
        ids=["negative-sum", "overlong-sum", "non-hex-sum", "negative-count",
             "none-state", "list-state", "missing-sum", "missing-count"],
    )
    def test_load_state_rejects_corrupt_state(self, state, field):
        acc = self._absorb(self.EVENTS)
        before = acc.state_dict()
        with pytest.raises(SimulationError, match=f"'{field}'"):
            acc.load_state(state)
        assert acc.state_dict() == before

    def test_pending_stays_below_the_cap(self):
        cap = AdditiveMultisetDigest.PENDING_CAP
        acc = AdditiveMultisetDigest()
        events = [
            {"t": 0.0, "seq": n, "type": "send", "src": f"u{n}", "ok": True}
            for n in range(cap + cap // 2)
        ]
        for event in events:
            acc.add(event)
            assert len(acc._pending) < cap
        # One flush at the cap; the rest waits for a read.
        assert len(acc._pending) == cap // 2
        total = sum(
            int.from_bytes(hashlib.sha256(canonical_line(
                {"type": "send", "src": e["src"], "ok": True}
            ).encode()).digest(), "big")
            for e in events
        )
        assert acc.state_dict() == {
            "sum": format(total % (1 << 256), "x"), "count": len(events)
        }
        assert not acc._pending

    def test_float_valued_events_hold_nothing_pending(self):
        acc = AdditiveMultisetDigest()
        for amount in (1.0, 1.0, -0.0, 0.0):
            acc.add({"t": 0.0, "seq": 1, "type": "topup", "amount": amount})
        acc.add({"t": 0.0, "seq": 1, "type": "crash", "path": ["a"]})
        assert not acc._pending
        assert acc.count == 5

    def test_empty_accumulators_agree(self):
        assert (
            AdditiveMultisetDigest().digest()
            == AdditiveMultisetDigest(include_types={"send"}).digest()
        )


class TestAccumulatorPin:
    """Absolute accumulator bytes for a fixed event list.

    Built through a digest-only recorder, with repeated events, values
    Python conflates but JSON encodes apart (``True``/``1``/``1.0``,
    ``0.0``/``-0.0``), nested containers and a journal round trip
    mid-stream. Any change to how the accumulator reduces, hashes or
    counts events moves these bytes.
    """

    MID_STATE = [
        {"sum": "e3522a3af6c1b48d108cfe7291baf713e19dd31038778f491a504295fb6de78",
         "count": 8},
        {"sum": "e3522a3af6c1b48d108cfe7291baf713e19dd31038778f491a504295fb6de78",
         "count": 8},
        {"sum": "a639e7cce5ef3dce4ad76079322022197a27dd43fa15a04aea5f0e3871dd516c",
         "count": 8},
    ]
    FINAL_STATE = [
        {"sum": "be239e7629607f9ff9ae639ed5d50dd556e3b5dc6578525df2bea4d7b9fae138",
         "count": 15},
        {"sum": "a3a1650646331964393961ed19680244a02ef05ba1058aab3b96eecaec119c62",
         "count": 10},
        {"sum": "71afa88326c110bc0e7a0c89d845fd138937bbf60292658babbfc54231f40a98",
         "count": 15},
    ]
    FINAL_DIGEST = [
        "8fe4e3a8030bff360bdfeea4f1dba9937826a52641703effbe79882b74b0e9a0",
        "670b72e91c8938d669ccf118d85309e819c77a52408aeb673f85c265695ed175",
        "92990ae9538e350fccf39ee608cce95ec359691344634277b64c543be5f55541",
    ]

    @staticmethod
    def _accumulators():
        return (
            AdditiveMultisetDigest(),
            AdditiveMultisetDigest(include_types=LEDGER_EVENT_TYPES),
            AdditiveMultisetDigest(exclude_fields=("seq",)),
        )

    @staticmethod
    def _emit_first(recorder):
        for _ in range(3):
            recorder.emit("send", src="a", dst="b", kind="normal", status="ok")
        recorder.emit("deliver", src="a", dst="b", kind="normal")
        for amount in (True, 1, 1.0, 1):
            recorder.emit("topup", isp="isp0", amount=amount)

    @staticmethod
    def _emit_second(recorder):
        recorder.emit("send", src="a", dst="b", kind="normal", status="ok")
        for credit in (0.0, -0.0, 0.0):
            recorder.emit("crash", node="isp0", credit=credit)
        for _ in range(2):
            recorder.emit(
                "crash", node="bank", path=[1, [2, "x"]],
                meta={"k": [None, False]},
            )
        recorder.emit("deliver", src="a", dst="b", kind="normal", note=None)

    def test_digest_and_state_bytes(self):
        ticks = iter(range(100))
        clock = lambda: float(next(ticks))  # noqa: E731
        first = self._accumulators()
        self._emit_first(TraceRecorder(sink=DigestSink(*first), clock=clock))
        mid = [acc.state_dict() for acc in first]
        assert mid == self.MID_STATE
        resumed = self._accumulators()
        for acc, state in zip(resumed, mid):
            acc.load_state(state)
        self._emit_second(TraceRecorder(sink=DigestSink(*resumed), clock=clock))
        assert [acc.state_dict() for acc in resumed] == self.FINAL_STATE
        assert [acc.digest() for acc in resumed] == self.FINAL_DIGEST


class TestDigestSink:
    def test_shared_event_feeds_every_accumulator_unchanged(self):
        # One dict reaches both accumulators and the line sink: a digest
        # that dropped fields from it in place would corrupt the others.
        without_seq = AdditiveMultisetDigest(exclude_fields=("seq",))
        default = AdditiveMultisetDigest()
        digests = DigestSink(without_seq, default)
        lines = ListSink()
        events = []

        class Fanout:
            def accept(self, event, line):
                digests.accept(event, line)
                lines.accept(event, line)
                events.append(event)

        recorder = TraceRecorder(sink=Fanout(), clock=lambda: 5.0)
        recorder.emit("send", src="a", dst="b", kind="normal", status="ok")
        recorder.emit("crash", node="bank")
        recorder.emit("send", src="b", dst="a", kind="normal", status="ok")

        for acc, kwargs in (
            (without_seq, {"exclude_fields": ("seq",)}),
            (default, {}),
        ):
            alone = AdditiveMultisetDigest(**kwargs)
            for event in events:
                alone.add(event)
            assert acc.digest() == alone.digest()
            assert acc.count == alone.count == 3
        assert without_seq.digest() != default.digest()
        assert lines.lines() == [canonical_line(e) for e in events]
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert all(e["t"] == 5.0 for e in events)


class TestDigestOnlyRecorder:
    """A recorder whose sink is a DigestSink builds no line and no stream hash."""

    def _emit_all(self, recorder):
        recorder.emit("send", src="a", dst="b", kind="normal", status="ok")
        recorder.emit("deliver", src="a", dst="b", kind="normal")
        recorder.emit("midnight", day=1)
        recorder.emit_at(7.0, "send", src="b", dst="a", kind="normal",
                         status="ok")

    def test_accumulators_equal_a_line_sinks_read_back(self):
        ledger = AdditiveMultisetDigest(include_types=LEDGER_EVENT_TYPES)
        full = AdditiveMultisetDigest(exclude_fields=("seq",))
        digest_only = TraceRecorder(
            sink=DigestSink(ledger, full), clock=lambda: 3.0
        )
        lines = ListSink()
        traced = TraceRecorder(sink=lines, clock=lambda: 3.0)
        self._emit_all(digest_only)
        self._emit_all(traced)

        assert digest_only.events_emitted == traced.events_emitted == 4
        for acc, kwargs in (
            (ledger, {"include_types": LEDGER_EVENT_TYPES}),
            (full, {"exclude_fields": ("seq",)}),
        ):
            read_back = AdditiveMultisetDigest(**kwargs)
            for line in lines.lines():
                read_back.add(json.loads(line))
            assert acc.count == read_back.count > 0
            assert acc.digest() == read_back.digest()

    def test_stream_digest_raises(self):
        recorder = TraceRecorder(sink=DigestSink(AdditiveMultisetDigest()))
        self._emit_all(recorder)
        with pytest.raises(
            SimulationError, match="attach a line sink or no sink"
        ):
            recorder.digest()


class TestSchema:
    def test_every_type_has_nonempty_requirements_documented(self):
        assert LEDGER_EVENT_TYPES <= set(EVENT_TYPES)
        for etype, required in EVENT_TYPES.items():
            assert isinstance(required, frozenset), etype

    def test_valid_event_passes(self):
        validate_event(
            {"t": 0.0, "seq": 1, "type": "send",
             "src": "a", "dst": "b", "kind": "normal", "status": "ok"}
        )

    def test_extra_fields_allowed(self):
        validate_event(
            {"t": 0.0, "seq": 1, "type": "crash", "node": "bank",
             "annotation": "anything"}
        )

    @pytest.mark.parametrize("missing", ["t", "seq", "type"])
    def test_envelope_required(self, missing):
        event = {"t": 0.0, "seq": 1, "type": "crash", "node": "bank"}
        del event[missing]
        with pytest.raises(TraceSchemaError, match="envelope|unknown"):
            validate_event(event)

    def test_negative_time_rejected(self):
        with pytest.raises(TraceSchemaError, match="time"):
            validate_event({"t": -1.0, "seq": 1, "type": "crash", "node": "b"})

    def test_boolean_time_rejected(self):
        with pytest.raises(TraceSchemaError, match="time"):
            validate_event({"t": True, "seq": 1, "type": "crash", "node": "b"})

    @pytest.mark.parametrize("seq", [0, -3, True, "1"])
    def test_invalid_seq_rejected(self, seq):
        with pytest.raises(TraceSchemaError, match="seq"):
            validate_event({"t": 0.0, "seq": seq, "type": "crash", "node": "b"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown event type"):
            validate_event({"t": 0.0, "seq": 1, "type": "frobnicate"})

    def test_missing_required_field_rejected(self):
        with pytest.raises(TraceSchemaError, match="missing required"):
            validate_event({"t": 0.0, "seq": 1, "type": "send", "src": "a"})

    def test_lines_must_increase_seq(self):
        lines = [
            canonical_line({"t": 0.0, "seq": 2, "type": "crash", "node": "a"}),
            canonical_line({"t": 0.0, "seq": 1, "type": "crash", "node": "a"}),
        ]
        with pytest.raises(TraceSchemaError, match="strictly increasing"):
            validate_trace_lines(lines)

    @pytest.mark.parametrize("line", ["42", "null", "[]"])
    def test_non_object_line_rejected(self, line):
        with pytest.raises(TraceSchemaError, match="JSON object"):
            validate_trace_lines([line])

    def test_unparseable_line_rejected(self):
        with pytest.raises(TraceSchemaError, match="unparseable"):
            validate_trace_lines(["{not json"])

    def test_blank_lines_skipped(self):
        line = canonical_line({"t": 0.0, "seq": 1, "type": "crash", "node": "a"})
        assert validate_trace_lines(["", line, "  "]) == 1
