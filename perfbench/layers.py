"""Aggregate layer spans for the traced run, recorded from outside ``src/``.

:class:`LayerTracer` replaces the public entry point of each layer (and,
where a layer has no public boundary, the module-level function that is
its boundary) with a timing wrapper, for the duration of a ``with``
block. It keeps only aggregates per span name — calls, total time and
self time, where self time excludes nested spans — plus the counters a
span's ``on_result`` hook derives from arguments and return values.
Iterator-returning boundaries (workload generators, the chunk planner)
are timed per ``next()``, so lazily generated work lands in the layer
that generates it, not in whoever pulls it.

Nothing is written while spans run; :func:`layer_metrics` turns the
aggregates into the per-layer metric table at the end.
"""

from __future__ import annotations

import importlib
import time

_clock = time.perf_counter


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class LayerTracer:
    """Installs timing wrappers; ``with tracer:`` scopes them."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self._children = [0.0]  # child time of each open span; [0] = root
        self._saved: list[tuple[object, str, object]] = []

    # -- bookkeeping -----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _close(self, name: str, elapsed: float, child: float) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        stat.calls += 1
        stat.total += elapsed
        stat.self += elapsed - child
        self._children[-1] += elapsed

    def covered(self) -> float:
        """Time inside top-level spans (sum of every span's self time)."""
        return self._children[0]

    # -- wrappers --------------------------------------------------------------

    def _call_wrapper(self, name, fn, on_result):
        children = self._children
        close = self._close

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                close(name, elapsed, children.pop())
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _iter_wrapper(self, name, fn, on_item):
        tracer = self

        def wrapper(*args, **kwargs):
            return _TimedIterator(tracer, name, fn(*args, **kwargs), on_item)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, target: str, name: str, *, on_result=None, iterator=False):
        """Wrap ``module[:Class].attr`` under span ``name`` until exit.

        ``on_result(tracer, args, result)`` runs after each call (for an
        iterator boundary: ``on_item(tracer, item)`` per yielded item).
        """
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        make = self._iter_wrapper if iterator else self._call_wrapper
        if isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(make(name, original.__func__, on_result))
        else:
            wrapped = make(name, original, on_result)
        setattr(owner, attr, wrapped)
        self._saved.append((owner, attr, original))

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _TimedIterator:
    __slots__ = ("_tracer", "_name", "_it", "_on_item")

    def __init__(self, tracer, name, iterable, on_item) -> None:
        self._tracer = tracer
        self._name = name
        self._it = iter(iterable)
        self._on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        children = tracer._children
        children.append(0.0)
        start = _clock()
        try:
            item = next(self._it)
        finally:
            elapsed = _clock() - start
            tracer._close(self._name, elapsed, children.pop())
        if self._on_item is not None:
            self._on_item(tracer, item)
        return item


# -- the layer map ---------------------------------------------------------------

_WORKLOAD_CLASSES = (
    "NormalUserWorkload", "SpamCampaignWorkload",
    "ZombieBurstWorkload", "FloodWorkload",
)
_DELIVERED = ("delivered_local", "sent_paid", "sent_unpaid")


def _count_columns(tracer, chunk):
    tracer.count("workload.requests", len(chunk[0]))


def _count_request(tracer, _request):
    tracer.count("workload.requests")


def _count_chunk(tracer, _chunk):
    tracer.count("columnar.chunks")


def _count_batch(tracer, args, _result):
    _np, _network, _state, _tracer, _chunk, pos, end = args
    tracer.count("columnar.messages", end - pos)


def _count_residual(tracer, args, _result):
    tracer.count("columnar.residual_messages", int(args[6].sum()))


def _count_send(tracer, _args, receipt):
    tracer.count("protocol.sends")
    if receipt.status.value in _DELIVERED:
        tracer.count("protocol.delivered")


def _count_topup(tracer, _args, _receipt):
    tracer.count("protocol.topups")


def _count_commit(tracer, _args, written):
    tracer.count("store.records", written)


def _count_admit(tracer, _args, verdict):
    if verdict != "accept":
        tracer.count("admission.refused")


#: (target, span name, hook, iterator?) for every wrapped boundary.
BOUNDARIES = [
    # sim.workload: columns for the columnar executor, objects otherwise.
    *(
        (f"repro.sim.workload:{cls}.generate_columns", "workload.gen",
         _count_columns, True)
        for cls in _WORKLOAD_CLASSES
    ),
    ("repro.core.scenario:merge_workloads", "workload.gen", _count_request, True),
    ("repro.cluster.worker:merge_workloads", "workload.gen", _count_request, True),
    # columnar.plan / executor / state (module-level functions wrapped in
    # place: the batch/residual split has no public boundary yet).
    ("repro.columnar.executor:merge_column_streams", "columnar.merge",
     _count_chunk, True),
    ("repro.columnar.executor:_execute_batch", "columnar.batch", _count_batch, False),
    ("repro.columnar.executor:_run_scalar", "columnar.residual",
     _count_residual, False),
    ("repro.columnar.executor:_emit_batch", "columnar.emit", None, False),
    ("repro.columnar.state:ColumnarState.spill", "columnar.sync", None, False),
    ("repro.columnar.state:ColumnarState.refresh", "columnar.sync", None, False),
    # core.protocol (§4.1 send decision + ledger) and core.isp.
    ("repro.core.protocol:ZmailNetwork.send", "protocol.send", _count_send, False),
    ("repro.core.protocol:ZmailNetwork._retry_with_topup", "protocol.topup",
     _count_topup, False),
    ("repro.core.protocol:ZmailNetwork.note_time", "protocol.clock", None, False),
    ("repro.core.isp:CompliantISP.deliver", "isp.deliver", None, False),
    # core.bank / reconcile and the manifest digests.
    ("repro.core.protocol:ZmailNetwork.reconcile", "reconcile", None, False),
    ("repro.columnar.executor:accounting_digest", "manifest.cut_digest", None, False),
    ("repro.core.scenario:accounting_digest", "manifest.cut_digest", None, False),
    ("repro.scenario.compiler:_invariant_accounting", "manifest.build", None, False),
    ("repro.scenario.compiler:_manifest", "manifest.build", None, False),
    ("repro.scenario.compiler:MetricsExporter.digest", "manifest.build", None, False),
    # obs.trace
    ("repro.obs.trace:TraceRecorder.emit", "trace.emit", None, False),
    ("repro.obs.trace:TraceRecorder.emit_at", "trace.emit", None, False),
    ("repro.obs.trace:DigestSink.accept", "trace.sink", None, False),
    # scenario
    ("repro.scenario.fuzz:generate_doc", "scenario.generate", None, False),
    ("repro.scenario.fuzz:compile_scenario", "scenario.compile", None, False),
    ("repro.scenario.compiler:ScenarioPlan.scenario", "scenario.compile", None, False),
    ("repro.core.scenario:Scenario.build_network", "scenario.build", None, False),
    # cluster
    ("repro.cluster.runtime:run_cluster", "cluster.run", None, False),
    ("repro.cluster.worker:ShardWorker.handle_inputs", "cluster.epoch", None, False),
    ("repro.cluster.runtime:_merge", "cluster.merge", None, False),
    # store
    ("repro.store.backend:DurableStore.commit", "store.commit", _count_commit, False),
    ("repro.store.service:restore_network", "store.restore", None, False),
    # smtp / gateway / admission
    ("repro.smtp.server:MailMessage.parse", "smtp.parse", None, False),
    ("repro.smtp.gateway:ZmailGateway.submit_outbound", "gateway.submit", None, False),
    ("repro.smtp.gateway:ZmailGateway.handle_inbound", "gateway.inbound", None, False),
    ("repro.core.overload:AdmissionController.admit", "admission.admit",
     _count_admit, False),
]


def install(tracer: LayerTracer) -> LayerTracer:
    """Wrap every boundary in :data:`BOUNDARIES`; returns ``tracer``."""
    for target, name, hook, iterator in BOUNDARIES:
        tracer.patch(target, name, on_result=hook, iterator=iterator)
    return tracer


#: Per-layer metrics: name -> (unit, better). The order is the report order.
PER_LAYER = {
    "workload.gen_s": ("s", "lower"),
    "workload.requests": ("count", "higher"),
    "columnar.merge_s": ("s", "lower"),
    "columnar.chunks": ("count", "lower"),
    "columnar.batch_s": ("s", "lower"),
    "columnar.batches": ("count", "lower"),
    "columnar.residual_s": ("s", "lower"),
    "columnar.residual_share": ("ratio", "lower"),
    "columnar.sync_s": ("s", "lower"),
    "columnar.emit_s": ("s", "lower"),
    "protocol.sends": ("count", "higher"),
    "protocol.send_s": ("s", "lower"),
    "protocol.topup_share": ("ratio", "lower"),
    "protocol.delivered_share": ("ratio", "higher"),
    "isp.delivers": ("count", "higher"),
    "isp.deliver_s": ("s", "lower"),
    "reconcile.rounds": ("count", "higher"),
    "reconcile.s": ("s", "lower"),
    "manifest.cut_digest_s": ("s", "lower"),
    "manifest.build_s": ("s", "lower"),
    "trace.events": ("count", "higher"),
    "trace.emit_s": ("s", "lower"),
    "trace.sink_s": ("s", "lower"),
    "trace.events_per_send": ("ratio", "lower"),
    "scenario.generate_s": ("s", "lower"),
    "scenario.compile_s": ("s", "lower"),
    "scenario.build_s": ("s", "lower"),
    "cluster.run_s": ("s", "lower"),
    "cluster.epoch_s": ("s", "lower"),
    "cluster.merge_s": ("s", "lower"),
    "store.commits": ("count", "higher"),
    "store.commit_s": ("s", "lower"),
    "store.records_per_commit": ("count", "lower"),
    "store.restore_s": ("s", "lower"),
    "smtp.sessions": ("count", "higher"),
    "smtp.parse_s": ("s", "lower"),
    "gateway.submit_s": ("s", "lower"),
    "gateway.inbound_s": ("s", "lower"),
    "smtp.wire_ms": ("ms", "lower"),
    "admission.calls": ("count", "higher"),
    "admission.admit_s": ("s", "lower"),
    "admission.refused_share": ("ratio", "lower"),
    "loadgen.sent": ("count", "higher"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.sustained_msgs_per_s": ("1/s", "higher"),
    "service.cpu_us_per_msg": ("us", "lower"),
    "loadgen.cpu_us_per_msg": ("us", "lower"),
    "other_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "layers.covered_share": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer,
    *,
    wall: float,
    sends: int,
    overhead: float,
    extra: dict[str, float] | None = None,
) -> dict[str, float]:
    """The per-layer table from a finished traced window.

    ``wall`` is the traced window's wall time and ``sends`` the sends
    attempted in it (every executor counted); ``extra`` supplies the
    values only the workload knows (SMTP sessions, load generator).
    """
    stat = tracer.stats

    def self_s(*names: str) -> float:
        return sum(stat[n].self for n in names if n in stat)

    def calls(name: str) -> int:
        return stat[name].calls if name in stat else 0

    count = tracer.counts.get
    covered = tracer.covered()
    values = {
        "workload.gen_s": self_s("workload.gen"),
        "workload.requests": count("workload.requests", 0),
        "columnar.merge_s": self_s("columnar.merge"),
        "columnar.chunks": count("columnar.chunks", 0),
        "columnar.batch_s": self_s("columnar.batch"),
        "columnar.batches": calls("columnar.batch"),
        "columnar.residual_s": self_s("columnar.residual"),
        "columnar.residual_share": _share(
            count("columnar.residual_messages", 0),
            count("columnar.messages", 0),
        ),
        "columnar.sync_s": self_s("columnar.sync"),
        "columnar.emit_s": self_s("columnar.emit"),
        "protocol.sends": count("protocol.sends", 0),
        "protocol.send_s": self_s("protocol.send", "protocol.topup", "protocol.clock"),
        "protocol.topup_share": _share(
            count("protocol.topups", 0), count("protocol.sends", 0)
        ),
        "protocol.delivered_share": _share(
            count("protocol.delivered", 0), count("protocol.sends", 0)
        ),
        "isp.delivers": calls("isp.deliver"),
        "isp.deliver_s": self_s("isp.deliver"),
        "reconcile.rounds": calls("reconcile"),
        "reconcile.s": self_s("reconcile"),
        "manifest.cut_digest_s": self_s("manifest.cut_digest"),
        "manifest.build_s": self_s("manifest.build"),
        "trace.events": calls("trace.emit"),
        "trace.emit_s": self_s("trace.emit"),
        "trace.sink_s": self_s("trace.sink"),
        "trace.events_per_send": _share(calls("trace.emit"), sends),
        "scenario.generate_s": self_s("scenario.generate"),
        "scenario.compile_s": self_s("scenario.compile"),
        "scenario.build_s": self_s("scenario.build"),
        "cluster.run_s": self_s("cluster.run"),
        "cluster.epoch_s": self_s("cluster.epoch"),
        "cluster.merge_s": self_s("cluster.merge"),
        "store.commits": calls("store.commit"),
        "store.commit_s": self_s("store.commit"),
        "store.records_per_commit": _share(
            count("store.records", 0), calls("store.commit")
        ),
        "store.restore_s": self_s("store.restore"),
        "smtp.sessions": 0,
        "smtp.parse_s": self_s("smtp.parse"),
        "gateway.submit_s": self_s("gateway.submit"),
        "gateway.inbound_s": self_s("gateway.inbound"),
        "smtp.wire_ms": 0.0,
        "admission.calls": calls("admission.admit"),
        "admission.admit_s": self_s("admission.admit"),
        "admission.refused_share": _share(
            count("admission.refused", 0), calls("admission.admit")
        ),
        "loadgen.sent": 0,
        "loadgen.late_p99_ms": 0.0,
        "loadgen.sustained_msgs_per_s": 0.0,
        "service.cpu_us_per_msg": 0.0,
        "loadgen.cpu_us_per_msg": 0.0,
        "other_s": wall - covered,
        "wall_s": wall,
        "layers.covered_share": _share(covered, wall),
        "trace.overhead_share": overhead,
    }
    if extra:
        values.update(extra)
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise AssertionError(f"layer metrics without a value: {sorted(missing)}")
    return values
