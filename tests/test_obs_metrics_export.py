"""Tests for the unified metrics exporter and the run manifest."""

import json

import pytest

from conftest import stream_workload
from repro.core import ZmailConfig, ZmailNetwork
from repro.obs.manifest import (
    MANIFEST_FORMAT_VERSION,
    RunManifest,
    config_digest,
)
from repro.obs.metrics_export import (
    METRICS_FORMAT_VERSION,
    MetricsExporter,
    export_deployment,
    export_network,
)
from repro.sim import Address
from repro.sim.metrics import MetricsRegistry


class TestMetricsExporter:
    def test_namespace_rules(self):
        exporter = MetricsExporter()
        exporter.add_static("a", {"x": 1})
        with pytest.raises(ValueError, match="already attached"):
            exporter.add_static("a", {"y": 2})
        with pytest.raises(ValueError, match="invalid namespace"):
            exporter.add_static("a.b", {"x": 1})
        with pytest.raises(ValueError, match="invalid namespace"):
            exporter.add_static("", {"x": 1})

    def test_registry_flattening(self):
        registry = MetricsRegistry()
        registry.counter("sent").increment(3)
        registry.counter("dropped")
        exporter = MetricsExporter()
        exporter.add_registry("sim", registry)
        assert exporter.collect() == {"sim.dropped": 0, "sim.sent": 3}

    def test_sources_are_live(self):
        state = {"n": 1}
        exporter = MetricsExporter()
        exporter.add_source("live", lambda: dict(state))
        assert exporter.collect()["live.n"] == 1
        state["n"] = 2
        assert exporter.collect()["live.n"] == 2

    def test_static_is_copied_now(self):
        values = {"seed": 7}
        exporter = MetricsExporter()
        exporter.add_static("run", values)
        values["seed"] = 8
        assert exporter.collect()["run.seed"] == 7

    def test_export_document_shape(self):
        exporter = MetricsExporter()
        exporter.add_static("b", {"x": 1})
        exporter.add_static("a", {"y": 2})
        doc = exporter.export()
        assert doc["format_version"] == METRICS_FORMAT_VERSION
        assert list(doc["metrics"]) == ["a.y", "b.x"]
        assert exporter.namespaces() == ["a", "b"]
        json.loads(exporter.to_json())  # valid JSON


class TestExportNetwork:
    def test_direct_network_namespaces_and_counters(self):
        network = ZmailNetwork(n_isps=2, users_per_isp=4, seed=3)
        for _ in range(5):
            network.send(Address(0, 1), Address(1, 2))
        exporter = export_network(network)
        flat = exporter.collect()
        assert exporter.namespaces() == ["overload", "zmail"]
        assert flat["zmail.deliver.delivered"] == 5
        assert flat["zmail.send.kind.normal"] == 5
        assert flat["overload.attempts"] == 0

    def test_collect_reflects_later_traffic(self):
        network = ZmailNetwork(n_isps=2, users_per_isp=4, seed=3)
        exporter = export_network(network)
        before = exporter.collect()["zmail.deliver.delivered"]
        network.send(Address(0, 1), Address(1, 2))
        after = exporter.collect()["zmail.deliver.delivered"]
        assert (before, after) == (0, 1)

    def test_engine_mode_network_exports_engine_and_link(self):
        from repro.sim import DAY, Engine, LinkSpec, SeededStreams
        from repro.sim.workload import NormalUserWorkload

        engine = Engine()
        network = ZmailNetwork(
            n_isps=2, users_per_isp=4, seed=9, engine=engine, link=LinkSpec()
        )
        workload = NormalUserWorkload(
            n_isps=2, users_per_isp=4, rate_per_day=60.0,
            streams=SeededStreams(9),
        )
        stream_workload(network, workload.generate(DAY / 4))
        engine.run(until=DAY / 4)
        exporter = export_network(network)
        flat = exporter.collect()
        assert set(exporter.namespaces()) == {
            "zmail", "overload", "engine", "link",
        }
        assert flat["engine.events_processed"] > 0
        assert flat["link.messages_sent"] > 0
        assert flat["zmail.deliver.delivered"] > 0

    def test_chaos_deployment_adds_chaos_and_link_namespaces(self):
        from repro.chaos import ChaosDeployment
        from repro.sim import SeededStreams
        from repro.sim.rng import derive_seed
        from repro.sim.workload import NormalUserWorkload

        deployment = ChaosDeployment(n_isps=2, users_per_isp=3, seed=5)
        workload = NormalUserWorkload(
            n_isps=2,
            users_per_isp=3,
            rate_per_day=5_000.0,
            streams=SeededStreams(derive_seed(5, "chaos-workload")),
        )
        assert deployment.run(workload.generate(30.0), until=30.0)
        exporter = export_deployment(deployment)
        flat = exporter.collect()
        assert set(exporter.namespaces()) == {
            "zmail", "overload", "engine", "link", "chaos",
        }
        assert flat["chaos.submits"] == deployment.stats()["submits"]
        assert flat["link.messages_sent"] > 0
        assert flat["engine.events_processed"] > 0
        assert (
            flat["zmail.deliver.delivered"]
            == deployment.network.metrics.counter("deliver.delivered").value
        )


class TestManifest:
    def _manifest(self, **overrides):
        fields = dict(
            seed=7,
            config_digest="c" * 64,
            event_count=2,
            event_digest="e" * 64,
            metrics_digest="m" * 64,
            extra={"scenario": "unit"},
        )
        fields.update(overrides)
        return RunManifest(**fields)

    def test_config_digest_stable_and_sensitive(self):
        base = ZmailConfig()
        assert config_digest(base) == config_digest(ZmailConfig())
        assert config_digest(base) != config_digest(
            ZmailConfig(default_daily_limit=999)
        )

    def test_round_trip(self):
        manifest = self._manifest()
        parsed = json.loads(manifest.to_json())
        assert parsed == manifest.to_dict()
        assert parsed["manifest_format_version"] == MANIFEST_FORMAT_VERSION

    def test_to_json_ends_with_newline(self):
        assert self._manifest().to_json().endswith("}\n")

    def test_digest_changes_with_any_field(self):
        base = self._manifest()
        assert base.digest() != self._manifest(seed=8).digest()
        assert base.digest() != self._manifest(event_count=3).digest()
        assert base.digest() != self._manifest(extra={}).digest()

