"""Hypothesis properties pinning the observability layer's contracts.

* counters are monotone: any sequence of valid increments never
  decreases the value, and invalid ones change nothing;
* every event type round-trips JSONL bit-exactly (emit → serialize →
  parse → same event), for arbitrary field values;
* the recorder's shared encoder writes exactly the bytes of
  ``json.dumps(sort_keys=True, separators=(",", ":"))`` for any event;
* manifest and metrics-export digests are order-insensitive: insertion
  and attachment order never change the digest;
* the additive multiset accumulator, which counts repeated reduced
  events, equals the per-event definition (the sum of each reduced
  event's SHA-256 mod 2**256, plus a count) whatever reads, journal
  round trips, merges and counted absorptions (``add_counted``)
  interleave with the events.
"""

import hashlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.obs.manifest import RunManifest
from repro.obs.metrics_export import MetricsExporter
from repro.obs.schema import EVENT_TYPES, validate_event
from repro.obs.trace import (
    AdditiveMultisetDigest,
    JsonlSink,
    TraceRecorder,
    canonical_line,
)
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
    # And the written bytes carry everything the digest covers.
    assert json.loads(forward.to_json()) == forward.to_dict()


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


#: Values Python conflates but JSON encodes apart (``True == 1 == 1.0``,
#: ``0.0 == -0.0``): half countable, half floats and containers.
MULTISET_VALUES = st.one_of(
    st.sampled_from([True, False, 1, 0, None, "1", "a", 2]),
    st.sampled_from([1.0, 0.0, -0.0, [1], [True], {"k": -0.0}, {"k": [0]}]),
)
MULTISET_TYPES = ("send", "deliver", "topup", "crash")
MULTISET_EVENTS = st.builds(
    lambda t, seq, etype, fields: {"t": t, "seq": seq, "type": etype, **fields},
    st.sampled_from([0.0, 1.5]),
    st.integers(1, 3),
    st.sampled_from(MULTISET_TYPES),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), MULTISET_VALUES, max_size=3),
)
MULTISET_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), MULTISET_EVENTS),
        # An event and its twin whose field ``name`` holds a value equal
        # in Python but encoded differently.
        st.builds(
            lambda event, name, value: ("twins", {**event, name: value}, name),
            MULTISET_EVENTS,
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from([True, False, 1, 0, 0.0, -0.0]),
        ),
        # An event absorbed n times at once, as a counting recorder
        # feeds it.
        st.tuples(st.just("counted"), MULTISET_EVENTS, st.integers(0, 4)),
        st.just(("digest",)),
        st.just(("roundtrip",)),
        st.tuples(st.just("merge"), st.lists(MULTISET_EVENTS, max_size=6)),
    ),
    max_size=60,
)


def _conflated(value):
    """The value equal to ``value`` in Python that encodes differently."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return bool(value)
    return -value


class _SmallCapDigest(AdditiveMultisetDigest):
    """Flushes at two distinct pending events, to interleave cap flushes."""

    __slots__ = ()
    PENDING_CAP = 2


def _reference_state(events, include, exclude, fields):
    """The per-event definition: Σ sha256(canonical_line(reduced)) mod 2**256."""
    total = count = 0
    for event in events:
        if include is not None and event["type"] not in include:
            continue
        if event["type"] in exclude:
            continue
        reduced = {k: v for k, v in event.items() if k not in fields}
        line = canonical_line(reduced).encode("utf-8")
        total += int.from_bytes(hashlib.sha256(line).digest(), "big")
        count += 1
    return {"sum": format(total % (1 << 256), "x"), "count": count}


def _reference_digest(state):
    payload = f"{state['count']}:{int(state['sum'], 16):064x}"
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    ops=MULTISET_OPS,
    include=st.one_of(st.none(), st.frozensets(st.sampled_from(MULTISET_TYPES))),
    exclude=st.frozensets(st.sampled_from(MULTISET_TYPES)),
    fields=st.sampled_from([("t", "seq"), ("seq",), ("t", "seq", "a"), ("t",), ()]),
    cls=st.sampled_from([AdditiveMultisetDigest, _SmallCapDigest]),
)
def test_multiset_counting_equals_per_event_definition(
    ops, include, exclude, fields, cls
):
    def fresh():
        return cls(include_types=include, exclude_types=exclude,
                   exclude_fields=fields)

    def reference(events):
        return _reference_state(events, include, exclude, fields)

    acc, absorbed = fresh(), []
    for op in ops:
        if op[0] == "add":
            acc.add(op[1])
            absorbed.append(op[1])
        elif op[0] == "counted":
            _, event, n = op
            acc.add_counted(event, n)
            absorbed.extend([event] * n)
        elif op[0] == "twins":
            _, event, name = op
            twin = {**event, name: _conflated(event[name])}
            for event in (event, twin):
                acc.add(event)
                absorbed.append(event)
        elif op[0] == "digest":
            assert acc.digest() == _reference_digest(reference(absorbed))
        elif op[0] == "roundtrip":
            state = acc.state_dict()
            assert state == reference(absorbed)
            # Loading replaces everything, pending events included.
            acc = fresh()
            for event in absorbed[-3:]:
                acc.add(event)
            acc.load_state(state)
        else:
            other = fresh()
            for event in op[1]:
                other.add(event)
            acc.merge(other)
            absorbed.extend(op[1])
            assert other.state_dict() == reference(op[1])
    final = reference(absorbed)
    assert acc.count == final["count"]
    assert acc.state_dict() == final
    assert acc.digest() == _reference_digest(final)
