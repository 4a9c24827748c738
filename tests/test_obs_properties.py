"""Hypothesis properties pinning the observability layer's contracts.

* the ring sink never exceeds its bound, for any emission count;
* counters are monotone: any sequence of valid increments never
  decreases the value, and invalid ones change nothing;
* every event type round-trips JSONL bit-exactly (emit → serialize →
  parse → same event), for arbitrary field values;
* the recorder's shared encoder writes exactly the bytes of
  ``json.dumps(sort_keys=True, separators=(",", ":"))`` for any event;
* manifest and metrics-export digests are order-insensitive: insertion
  and attachment order never change the digest.
"""

import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.obs.manifest import RunManifest
from repro.obs.metrics_export import MetricsExporter
from repro.obs.schema import EVENT_TYPES, validate_event
from repro.obs.trace import JsonlSink, RingSink, TraceRecorder, canonical_line
from repro.sim.metrics import Counter

OBS_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

#: JSON-exact scalars: finite floats and bounded ints survive a
#: serialize/parse round trip bit-for-bit.
SCALARS = st.one_of(
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
    st.booleans(),
)

#: Any JSON value the encoder can meet: nested containers, non-ASCII and
#: control-character strings, and the float/int edge cases whose text
#: form an encoder could get wrong.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from([-0.0, 0.0, 1e300, -1e300, 2**63, 2**64 + 1, -(2**63) - 1]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(),
        st.text(st.characters(codec="ascii", categories=["Cc"])),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@OBS_SETTINGS
@given(event=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6))
def test_canonical_line_matches_json_dumps(event):
    assert canonical_line(event) == json.dumps(
        event, sort_keys=True, separators=(",", ":")
    )


@OBS_SETTINGS
@given(bound=st.integers(1, 50), emissions=st.integers(0, 200))
def test_ring_sink_never_exceeds_bound(bound, emissions):
    ring = RingSink(bound=bound)
    recorder = TraceRecorder(sink=ring)
    for i in range(emissions):
        recorder.emit("crash", node=f"isp{i}")
        assert len(ring) <= bound
    assert len(ring) == min(emissions, bound)
    assert recorder.events_emitted == emissions


@OBS_SETTINGS
@given(increments=st.lists(st.integers(0, 1000), max_size=50))
def test_counter_never_decreases(increments):
    counter = Counter("c")
    previous = 0
    for amount in increments:
        counter.increment(amount)
        assert counter.value >= previous
        previous = counter.value
    assert counter.value == sum(increments)


@OBS_SETTINGS
@given(amount=st.integers(-1000, -1))
def test_counter_rejects_decrease_and_stays_unchanged(amount):
    counter = Counter("c")
    counter.increment(7)
    with pytest.raises(ValueError):
        counter.increment(amount)
    assert counter.value == 7


@pytest.mark.parametrize("etype", sorted(EVENT_TYPES))
@OBS_SETTINGS
@given(data=st.data())
def test_jsonl_round_trips_every_event_type(etype, data):
    t = data.draw(st.floats(0.0, 1e6, allow_nan=False), label="t")
    fields = {
        name: data.draw(SCALARS, label=name)
        for name in sorted(EVENT_TYPES[etype])
    }
    buffer = io.StringIO()
    recorder = TraceRecorder(sink=JsonlSink(buffer))
    recorder.emit_at(t, etype, **fields)
    line = buffer.getvalue()
    assert line.endswith("\n")
    event = json.loads(line)
    validate_event(event)
    assert event["type"] == etype
    assert event["t"] == t
    assert event["seq"] == 1
    for name, value in fields.items():
        assert event[name] == value


@OBS_SETTINGS
@given(
    extra=st.dictionaries(
        st.text(st.characters(categories=["Ll"]), min_size=1, max_size=8),
        SCALARS,
        max_size=6,
    )
)
def test_manifest_digest_is_order_insensitive(extra):
    def manifest(extra_dict):
        return RunManifest(
            seed=7,
            config_digest="c" * 64,
            event_count=3,
            event_digest="e" * 64,
            metrics_digest="m" * 64,
            extra=extra_dict,
        )

    forward = manifest(dict(extra))
    backward = manifest(dict(reversed(list(extra.items()))))
    assert forward.digest() == backward.digest()
    assert forward.to_json() == backward.to_json()
    # And the round trip preserves everything the digest covers.
    parsed = RunManifest.from_json(forward.to_json())
    assert parsed.digest() == forward.digest()
    assert parsed.extra == extra


@OBS_SETTINGS
@given(
    namespaces=st.dictionaries(
        st.text(st.characters(categories=["Ll"]), min_size=1, max_size=8),
        st.dictionaries(
            st.text(st.characters(categories=["Ll"]), min_size=1, max_size=8),
            st.integers(0, 10_000),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_exporter_digest_is_attachment_order_insensitive(namespaces):
    forward = MetricsExporter()
    for namespace, values in namespaces.items():
        forward.add_static(namespace, values)
    backward = MetricsExporter()
    for namespace, values in reversed(list(namespaces.items())):
        backward.add_static(namespace, values)
    assert forward.digest() == backward.digest()
    assert forward.export() == backward.export()
