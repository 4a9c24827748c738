"""The trace oracle: tracing is deterministic and observer-effect-free.

Two properties make the trace usable as a regression oracle:

* **Determinism** — the same seed produces byte-identical traces,
  metrics exports and manifests, run after run.
* **Zero observer effect** — running with tracing on produces exactly
  the outcomes of running with it off; recording never perturbs the
  simulation it records.
"""

import pytest

from conftest import load_plan
from repro.chaos import ChaosDeployment, FaultSpec
from repro.core import ZmailConfig
from repro.obs.manifest import RunManifest, config_digest
from repro.obs.metrics_export import export_network
from repro.obs.schema import EVENT_TYPES, validate_trace_lines
from repro.obs.trace import (
    AdditiveMultisetDigest,
    DigestSink,
    JsonlSink,
    ListSink,
    TraceRecorder,
)
from repro.scenario import INVARIANT_EVENT_TYPES
from repro.sim import SeededStreams
from repro.sim.rng import derive_seed
from repro.sim.workload import NormalUserWorkload

def canonical_world(*, seed=None, tracer=None, mode="direct"):
    """The canonical document's world, optionally re-seeded and traced."""
    scenario = load_plan("canonical-3isp.yaml", seed=seed).scenario(mode)
    scenario.tracer = tracer
    return scenario


def run_canonical(*, seed=None, sink=None):
    """A traced canonical run: ``(result, recorder, exporter, manifest)``."""
    recorder = TraceRecorder(sink=sink)
    scenario = canonical_world(seed=seed, tracer=recorder)
    result = scenario.run()
    exporter = export_network(result.network)
    manifest = RunManifest(
        seed=scenario.seed,
        config_digest=config_digest(scenario.config),
        event_count=recorder.events_emitted,
        event_digest=recorder.digest(),
        metrics_digest=exporter.digest(),
    )
    return result, recorder, exporter, manifest


class TestCanonicalDeterminism:
    def test_same_seed_same_digests_and_manifest_bytes(self):
        _, rec1, exp1, man1 = run_canonical()
        _, rec2, exp2, man2 = run_canonical()
        assert rec1.events_emitted == rec2.events_emitted > 0
        assert rec1.digest() == rec2.digest()
        assert exp1.digest() == exp2.digest()
        assert man1.to_json() == man2.to_json()
        assert man1.digest() == man2.digest()

    def test_same_seed_same_trace_bytes(self):
        sink1, sink2 = ListSink(), ListSink()
        run_canonical(sink=sink1)
        run_canonical(sink=sink2)
        assert sink1.lines() == sink2.lines()

    def test_different_seed_different_event_digest(self):
        _, rec1, _, man1 = run_canonical()
        _, rec2, _, man2 = run_canonical(seed=8)
        assert rec1.digest() != rec2.digest()
        assert man1.to_json() != man2.to_json()

    def test_canonical_trace_is_schema_valid(self):
        sink = ListSink()
        _, recorder, _, _ = run_canonical(sink=sink)
        checked = validate_trace_lines(sink.lines())
        assert checked == recorder.events_emitted > 1000

    def test_canonical_trace_covers_the_ledger_path(self):
        sink = ListSink()
        run_canonical(sink=sink)
        seen = {event["type"] for event in sink.events()}
        assert seen <= set(EVENT_TYPES)
        for expected in ("send", "deliver", "midnight", "reconcile"):
            assert expected in seen, f"canonical run never emitted {expected!r}"
        times = [event["t"] for event in sink.events()]
        assert times == sorted(times), "virtual time went backwards"
        assert times[-1] > 0.0, "clock was never installed on the tracer"


class TestObserverEffect:
    def test_tracing_on_and_off_produce_identical_outcomes(self):
        traced = canonical_world(tracer=TraceRecorder()).run()
        untraced = canonical_world().run()
        assert traced.summary() == untraced.summary()

    @pytest.mark.parametrize("mode", ["direct", "columnar"])
    def test_counting_recorder_changes_no_outcome(self, mode):
        # run_plan's recorder: counted ledger events, no event dicts. The
        # run matches the untraced one, and its ledger digest the one a
        # line sink's events give when read back one by one.
        ledger = AdditiveMultisetDigest(include_types=INVARIANT_EVENT_TYPES)
        recorder = TraceRecorder(sink=DigestSink(ledger))
        assert recorder.counts is not None
        counted = canonical_world(tracer=recorder, mode=mode).run()
        untraced = canonical_world(mode=mode).run()
        assert counted.summary() == untraced.summary()
        assert counted.cut_digests == untraced.cut_digests
        lines = ListSink()
        canonical_world(tracer=TraceRecorder(sink=lines), mode=mode).run()
        read_back = AdditiveMultisetDigest(include_types=INVARIANT_EVENT_TYPES)
        for event in lines.events():
            read_back.add(event)
        assert ledger.count == read_back.count > 1000
        assert ledger.digest() == read_back.digest()
        assert recorder.events_emitted == len(lines)

    def test_manifest_identical_with_and_without_sink(self):
        # Retention is pure observation: streaming every line to a sink
        # must not shift a single event relative to the sinkless run.
        _, rec_sinkless, _, man_sinkless = run_canonical()
        _, rec_sink, _, man_sink = run_canonical(sink=ListSink())
        assert rec_sinkless.digest() == rec_sink.digest()
        assert man_sinkless.to_json() == man_sink.to_json()

    def test_list_and_jsonl_sinks_record_the_same_trace(self, tmp_path):
        # The recorder digests the canonical line stream before any sink
        # sees it, so the sink that stores the lines cannot change them.
        untraced = canonical_world().run()
        retained = ListSink()
        listed, list_rec, _, list_man = run_canonical(sink=retained)
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            jsonl, jsonl_rec, _, jsonl_man = run_canonical(sink=sink)
        assert listed.summary() == jsonl.summary() == untraced.summary()
        assert list_rec.digest() == jsonl_rec.digest()
        assert list_man.to_json() == jsonl_man.to_json()
        assert retained.lines() == path.read_text().splitlines()


class TestChaosObserverEffect:
    @staticmethod
    def _run(tracer):
        seed = 13
        deployment = ChaosDeployment(
            n_isps=2,
            users_per_isp=3,
            seed=seed,
            config=ZmailConfig(default_user_balance=1000, auto_topup_amount=0),
            faults=FaultSpec(drop_rate=0.2, duplicate_rate=0.1),
            monitor_interval=5.0,
            tracer=tracer,
        )
        workload = NormalUserWorkload(
            n_isps=2,
            users_per_isp=3,
            rate_per_day=10_000.0,
            streams=SeededStreams(derive_seed(seed, "chaos-workload")),
        )
        converged = deployment.run(
            workload.generate(60.0), until=60.0, drain_window=1_000.0
        )
        assert converged
        return deployment

    def test_chaos_digest_identical_with_tracing_on_and_off(self):
        traced = self._run(TraceRecorder(sink=ListSink()))
        untraced = self._run(None)
        assert traced.tracer.events_emitted > 0
        assert traced.digest() == untraced.digest()
        assert traced.stats() == untraced.stats()

    def test_chaos_trace_is_deterministic_and_schema_valid(self):
        first = self._run(TraceRecorder(sink=ListSink()))
        second = self._run(TraceRecorder())
        assert first.tracer.digest() == second.tracer.digest()
        assert validate_trace_lines(first.tracer.sink.lines()) > 0
