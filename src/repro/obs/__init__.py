"""Unified observability: event tracing, metrics, manifests.

Four pieces, one discipline (virtual time in digests, wall clock never):

* :mod:`~repro.obs.trace` — the structured event bus. Near-zero cost
  when disabled; canonical JSONL + incremental stream digest when on,
  plus the order-insensitive multiset digest the cross-executor checks
  compare.
* :mod:`~repro.obs.schema` — the event taxonomy and its validators.
* :mod:`~repro.obs.metrics_export` — one namespaced registry over all
  ad-hoc metrics, dumpable as JSON (``repro run doc.yaml --metrics``).
* :mod:`~repro.obs.manifest` — the run identity card: seed, config
  digest, format versions, event/metric/accounting digests.

Wall-clock timing lives outside ``src/``: ``perfbench/run.py --trace 1``
wraps named functions from the outside and reports per-layer time.

``repro run examples/scenarios/canonical-3isp.yaml --trace out.jsonl``
writes the canonical world's JSONL trace; two same-seed runs produce
byte-identical files, and the trace is byte-identical across the
direct and columnar executors.
"""

from .manifest import (
    MANIFEST_FORMAT_VERSION,
    RunManifest,
    accounting_digest,
    config_digest,
)
from .metrics_export import (
    METRICS_FORMAT_VERSION,
    MetricsExporter,
    export_deployment,
    export_network,
)
from .schema import (
    EVENT_TYPES,
    LEDGER_EVENT_TYPES,
    TraceSchemaError,
    validate_event,
    validate_trace_lines,
)
from .trace import (
    NULL_TRACER,
    TRACE_FORMAT_VERSION,
    AdditiveMultisetDigest,
    DigestSink,
    JsonlSink,
    ListSink,
    TraceRecorder,
    canonical_line,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "METRICS_FORMAT_VERSION",
    "MANIFEST_FORMAT_VERSION",
    "TraceRecorder",
    "ListSink",
    "JsonlSink",
    "DigestSink",
    "NULL_TRACER",
    "canonical_line",
    "AdditiveMultisetDigest",
    "MetricsExporter",
    "export_network",
    "export_deployment",
    "RunManifest",
    "config_digest",
    "accounting_digest",
    "EVENT_TYPES",
    "LEDGER_EVENT_TYPES",
    "TraceSchemaError",
    "validate_event",
    "validate_trace_lines",
]
