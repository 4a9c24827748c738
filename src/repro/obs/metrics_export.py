"""One namespaced registry over every metric the system produces.

Before this module, each harness read its own private counters: the
benchmarks reached into ``network.metrics``, the chaos campaign into
``deployment.stats()``, the SMTP tests into ``gateway.*`` counter names.
:class:`MetricsExporter` unifies them: attach registries, callables and
static values under namespaces, then :meth:`export` a single flat,
sorted, JSON-ready mapping.

The export digest is **order-insensitive by construction**: keys are
sorted before serialization, so the digest depends only on the final
``name → value`` mapping, never on attachment order. The property tests
pin this down.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Mapping

from ..sim.metrics import MetricsRegistry

__all__ = [
    "METRICS_FORMAT_VERSION",
    "MetricsExporter",
    "export_network",
    "export_deployment",
]

#: Bumped when the export layout or digest definition changes.
METRICS_FORMAT_VERSION = 1


class MetricsExporter:
    """Namespaced aggregation of registries, sources and static values.

    Attach producers under unique namespaces; :meth:`collect` flattens
    everything to ``namespace.key`` entries read at call time (sources
    are live — re-collecting after more traffic reflects the new
    counts).
    """

    def __init__(self) -> None:
        self._registries: dict[str, MetricsRegistry] = {}
        self._sources: dict[str, Callable[[], Mapping[str, object]]] = {}
        self._static: dict[str, dict[str, object]] = {}

    def _claim(self, namespace: str) -> None:
        if not namespace or "." in namespace:
            raise ValueError(f"invalid namespace {namespace!r}")
        if (
            namespace in self._registries
            or namespace in self._sources
            or namespace in self._static
        ):
            raise ValueError(f"namespace {namespace!r} already attached")

    def add_registry(self, namespace: str, registry: MetricsRegistry) -> None:
        """Attach a :class:`MetricsRegistry`; its counters export under
        ``namespace.<counter>``."""
        self._claim(namespace)
        self._registries[namespace] = registry

    def add_source(
        self, namespace: str, source: Callable[[], Mapping[str, object]]
    ) -> None:
        """Attach a live callable returning a flat ``{key: scalar}`` map."""
        self._claim(namespace)
        self._sources[namespace] = source

    def add_static(self, namespace: str, values: Mapping[str, object]) -> None:
        """Attach fixed values (run parameters, verdicts) copied now."""
        self._claim(namespace)
        self._static[namespace] = dict(values)

    def namespaces(self) -> list[str]:
        """Every attached namespace, sorted."""
        return sorted(
            set(self._registries) | set(self._sources) | set(self._static)
        )

    def collect(self) -> dict[str, object]:
        """Flatten everything to a ``{namespace.key: value}`` mapping."""
        flat: dict[str, object] = {}
        for namespace, registry in self._registries.items():
            for name, value in registry.snapshot()["counters"].items():
                flat[f"{namespace}.{name}"] = value
        for namespace, source in self._sources.items():
            for name, value in source().items():
                flat[f"{namespace}.{name}"] = value
        for namespace, values in self._static.items():
            for name, value in values.items():
                flat[f"{namespace}.{name}"] = value
        return flat

    def export(self) -> dict[str, object]:
        """The JSON-ready document: format version + sorted metrics."""
        flat = self.collect()
        return {
            "format_version": METRICS_FORMAT_VERSION,
            "metrics": {name: flat[name] for name in sorted(flat)},
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize :meth:`export` (sorted keys; pretty by default)."""
        return json.dumps(self.export(), sort_keys=True, indent=indent)

    def digest(self) -> str:
        """SHA-256 over the canonical export bytes (hex).

        Order-insensitive with respect to attachment order: the export
        sorts every key, so only the name→value mapping matters.
        """
        canonical = json.dumps(
            self.export(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def export_network(network) -> MetricsExporter:
    """The standard exporter for a :class:`~repro.core.protocol.ZmailNetwork`.

    Namespaces: ``zmail`` (the protocol registry, including the
    ``gateway.*`` counters an attached SMTP gateway records there),
    ``overload`` (admission accounting), and when present ``engine`` /
    ``link`` (event and wire totals).
    """
    exporter = MetricsExporter()
    exporter.add_registry("zmail", network.metrics)
    exporter.add_source(
        "overload",
        lambda: {
            key.removeprefix("overload_"): value
            for key, value in network.overload_stats().items()
        },
    )
    if network.engine is not None:
        engine = network.engine
        exporter.add_source(
            "engine",
            lambda: {
                "events_processed": engine.events_processed,
                "pending": engine.pending,
            },
        )
    if network.net is not None:
        _add_link(exporter, network.net)
    return exporter


def _add_link(exporter: MetricsExporter, net) -> None:
    """Attach a wire's totals under ``link``."""
    exporter.add_source(
        "link",
        lambda: {
            "messages_sent": net.messages_sent,
            "messages_delivered": net.messages_delivered,
            "messages_dropped": net.messages_dropped,
            "bytes_sent": net.bytes_sent,
        },
    )


def export_deployment(deployment) -> MetricsExporter:
    """Exporter for a chaos :class:`~repro.chaos.deployment.ChaosDeployment`.

    Everything :func:`export_network` provides, plus the harness's own
    accounting (fault, crash, snapshot and monitor totals) under
    ``chaos``. The deployment's Zmail network runs on the deployment's
    engine but carries letters over the harness's faulty wire, so the
    ``engine`` namespace comes from the network and ``link`` from the
    harness's wire.
    """
    exporter = export_network(deployment.network)
    _add_link(exporter, deployment.net)
    exporter.add_source("chaos", deployment.stats)
    return exporter
