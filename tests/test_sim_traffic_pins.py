"""Every example document's traffic, pinned byte for byte.

The sha256 of each document's merged request sequence — one ``repr(time)
sender recipient kind`` line per message — must be the same through the
object view (merged ``SendRequest`` objects), the column view (merged
column chunks) and the rows every direct-semantics drive loop reads
(``Scenario.request_rows``). The object view is the reference: rows and
columns share one merge, so only a comparison against ``heapq.merge``
checks that merge's tie-break.
"""

import glob
import hashlib
import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EXAMPLES, load_plan
from repro.columnar.plan import KIND_ORDER, merge_column_streams
from repro.scenario import compile_scenario
from repro.scenario.generate import generate_doc
from repro.sim.rng import SeededStreams
from repro.sim.workload import Address, merge_workloads

# The three chaos cells share one world and differ only in faults.
_CHAOS = "a4ada251fd8809148762b92c6c5f7b1f502ade60013d666ec00a0836256f0f7d"

#: sha256 of each document's merged request sequence.
TRAFFIC_SHA256 = {
    "arena-wash-vs-tuner":
        "66d0ce387b102b5d1aebbc6914df84dec2dd1a5e91df5a6820d9e6d4129b097a",
    "canonical-3isp":
        "f4d469c12a5ffe805765dc86518b018b0a76d3fbb0a8311c2725b8990627127d",
    "chaos-clean": _CHAOS,
    "chaos-crashy": _CHAOS,
    "chaos-lossy-dup-reorder": _CHAOS,
    "cluster-8isp":
        "c6640ecf75ca69ae6298d5312ca4d1e20d5500ef3956bd1a46ee10f9efdd7d40",
    "mixed-4isp":
        "c32fd9946d5d280570f5578f1495f8b79233b262bcb06d03dfe955a6b1a96c0a",
    "overload-baseline":
        "85ea388ce0922e1f6e590f6e4e3480b8b108155f50895faf717da2bf8465fdf2",
    "overload-burst-2x":
        "3be076344a51a2bf84f561e1f387cacd908dcc7c6fa04f30a1f78035aeb252b7",
    "overload-flood-10x":
        "c0a68fd1d5ea586a79f369e6dd0ec1e7f840e0f49e886a59d1b18a9860b69070",
    "soak":
        "d6880dadae03ed5c339c01eb26adc8b662b4e3f688be3a69a83bc4e72ad53670",
}


#: Every committed document, so a new one fails until it is pinned.
STEMS = sorted(
    os.path.basename(path).removesuffix(".yaml")
    for path in glob.glob(os.path.join(EXAMPLES, "*.yaml"))
)


def _scenario(stem):
    return load_plan(f"{stem}.yaml").scenario("direct")


def _digest(rows):
    """sha256 over one ``repr(time) sender recipient kind`` line per row."""
    digest = hashlib.sha256()
    for when, sender, recipient, kind in rows:
        digest.update(f"{when!r} {sender} {recipient} {kind.value}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("stem", STEMS)
def test_object_traffic_is_pinned(stem):
    scenario = _scenario(stem)
    requests = merge_workloads(
        *scenario.workload_streams(SeededStreams(scenario.seed))
    )
    rows = ((r.time, r.sender, r.recipient, r.kind) for r in requests)
    assert _digest(rows) == TRAFFIC_SHA256[stem]


@pytest.mark.parametrize("stem", STEMS)
def test_column_traffic_is_pinned(stem):
    scenario = _scenario(stem)
    users = scenario.users_per_isp
    chunks = merge_column_streams(
        scenario.workload_column_streams(SeededStreams(scenario.seed))
    )
    rows = (
        (when, Address(s // users, s % users),
         Address(r // users, r % users), KIND_ORDER[kind])
        for chunk in chunks
        for when, s, r, kind in zip(
            chunk.times.tolist(), chunk.senders.tolist(),
            chunk.recipients.tolist(), chunk.kinds.tolist(),
        )
    )
    assert _digest(rows) == TRAFFIC_SHA256[stem]


@pytest.mark.parametrize("stem", STEMS)
def test_row_traffic_is_pinned(stem):
    scenario = _scenario(stem)
    rows = scenario.request_rows(SeededStreams(scenario.seed))
    assert _digest(rows) == TRAFFIC_SHA256[stem]


def _object_rows(scenario):
    """The reference: ``heapq.merge`` over the ``SendRequest`` view."""
    requests = merge_workloads(
        *scenario.workload_streams(SeededStreams(scenario.seed))
    )
    return [(r.time, r.sender, r.recipient, r.kind) for r in requests]


def _rows(scenario, **kwargs):
    return list(
        scenario.request_rows(SeededStreams(scenario.seed), **kwargs)
    )


def test_sender_isp_filter_is_a_filter_of_the_full_stream():
    """The cluster's shard filter keeps exactly the shard's own senders."""
    scenario = _scenario("cluster-8isp")
    full = _rows(scenario)
    for isp in range(scenario.n_isps):
        shard = _rows(scenario, sender_isps={isp})
        assert shard, isp
        assert shard == [row for row in full if row[1].isp == isp], isp


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_rows_match_the_object_view_on_generated_worlds(seed):
    """Rows equal the merged ``SendRequest``s, and every ISP set's mask
    equals the filtered full stream, in order."""
    scenario = compile_scenario(generate_doc(seed)).scenario("direct")
    full = _object_rows(scenario)
    assert _rows(scenario) == full
    isps = range(scenario.n_isps)
    for size in range(scenario.n_isps + 1):
        for chosen in itertools.combinations(isps, size):
            expected = [row for row in full if row[1].isp in chosen]
            assert _rows(scenario, sender_isps=set(chosen)) == expected
