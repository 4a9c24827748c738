"""Unit tests for the trace recorder, sinks, digests and event schema."""

import io
import json

import pytest

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
    RingSink,
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
    def test_ring_keeps_newest(self):
        ring = RingSink(bound=3)
        recorder = TraceRecorder(sink=ring)
        for node in "abcde":
            recorder.emit("crash", node=node)
        assert len(ring) == 3
        assert [e["node"] for e in ring.events()] == ["c", "d", "e"]
        assert [json.loads(line)["node"] for line in ring.lines()] == ["c", "d", "e"]
        assert ring.bound == 3

    def test_ring_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="bound"):
            RingSink(bound=0)

    def test_ring_eviction_does_not_change_digest(self):
        bounded = TraceRecorder(sink=RingSink(bound=2))
        unbounded = TraceRecorder(sink=ListSink())
        for recorder in (bounded, unbounded):
            for node in "abcd":
                recorder.emit("crash", node=node)
        assert bounded.digest() == unbounded.digest()

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

    def test_empty_accumulators_agree(self):
        assert (
            AdditiveMultisetDigest().digest()
            == AdditiveMultisetDigest(include_types={"send"}).digest()
        )


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
