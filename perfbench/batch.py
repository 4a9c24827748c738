"""The two batch workloads: ``macro-columnar`` and ``fuzz-campaign``.

Both time *units* of work back to back until the measuring window is
spent, then check every unit's outputs outside the window:

* ``macro-columnar`` — one unit is a full run of the 8-ISP x 64-user,
  14-day macro world (``worlds/macro-columnar.json``, seed from the
  command line) on the untraced columnar executor. Its final and
  per-cut accounting digests must equal the direct executor's for the
  same seed, computed once per seed in a helper process before timing.
* ``fuzz-campaign`` — one unit is one pass of :func:`run_fuzz` over a
  fixed corpus of generated worlds (the first ``CORPUS_WORLDS`` of
  campaign ``CORPUS_CAMPAIGN``). The command-line seed re-seeds every
  world's traffic on every pass, so each pass sends different messages
  through the same world shapes: the workload mix, and with it the
  figures, stay comparable across seeds. Each world runs direct,
  columnar and inline cluster through ``run_plan`` with a
  ``DigestSink`` tracer and a manifest byte-compare (the campaign
  oracle, :func:`check_world`).

Both run on one thread of this process, so ``msgs_per_s`` divides the
sends by the CPU time the process spent in the timed units. On an idle
host that equals their wall time; on a shared VM it leaves out the time
another tenant held the core, which moves wall time by tens of percent
from one run to the next. The wall-clock rate is printed beside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time

from harness import (
    BENCH_DIR, ROOT, SCRATCH, SMOKE, SRC, Outcome, child_env,
    measure_setup, peak_rss_mb,
)
from layers import LayerTracer, install, layer_metrics

MACRO_DOC = BENCH_DIR / "worlds" / "macro-columnar.json"
MACRO_DAYS = 1 if SMOKE else 14
#: The macro world's seed for the set-up probe (any fixed seed will do).
PROBE_SEED = 1
#: Campaign 11's first eight worlds mix tiny setup-bound worlds, flood
#: worlds, a tight-balance world (no cluster) and a non-compliant one
#: (no columnar); one pass takes about 11 s on a 2-core host.
CORPUS_CAMPAIGN = 2 if SMOKE else 11
CORPUS_WORLDS = 2 if SMOKE else 8
FUZZ_SHARDS = 2
#: Where a failing fuzz pass writes its re-seeded world (git-ignored).
FUZZ_FAILURES = SCRATCH / "fuzz-failures"
#: SMTP submission metrics; the batch workloads have none.
NOT_APPLICABLE = {
    "submit_p50_ms": "ms", "submit_p99_ms": "ms",
    "durable_p99_ms": "ms", "sustained_msgs_per_s": "1/s",
}


# -- shared --------------------------------------------------------------------------


def _timed_units(run_unit, seconds: float) -> list[dict]:
    """Run ``run_unit(index)`` until ``seconds`` of unit wall time are spent.

    Each unit record gains its wall time (``seconds``) and this
    process's CPU time (``cpu``).
    """
    units = []
    spent = 0.0
    while spent < seconds or not units:
        wall, cpu = time.perf_counter(), time.process_time()
        unit = run_unit(len(units))
        unit["seconds"] = time.perf_counter() - wall
        unit["cpu"] = time.process_time() - cpu
        units.append(unit)
        spent += unit["seconds"]
    return units


def _sends(units) -> int:
    return sum(u["sends"] for u in units)


def _end_to_end(units, setup_s: float) -> dict[str, tuple[float, str]]:
    metrics = {
        "setup_s": (setup_s, "s"),
        "msgs_per_s": (_sends(units) / sum(u["cpu"] for u in units), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    metrics.update((name, (math.nan, unit)) for name, unit in NOT_APPLICABLE.items())
    return metrics


def _wall_rate(units) -> str:
    return f"{_sends(units) / sum(u['seconds'] for u in units):.6g} msgs/s"


def _traced(run_units, seconds: float):
    """Untraced then traced halves of the window; per-layer metrics."""
    plain = run_units(seconds / 2)
    tracer = LayerTracer()
    with install(tracer):
        traced = run_units(seconds / 2)

    def cpu_per_send(units):
        return sum(u["cpu"] for u in units) / _sends(units)

    overhead = cpu_per_send(traced) / cpu_per_send(plain) - 1.0
    return plain, traced, tracer, overhead


def _layer_outcome(plain, traced, tracer, overhead, problems) -> Outcome:
    metrics = layer_metrics(
        tracer,
        wall=sum(u["seconds"] for u in traced),
        sends=_sends(traced),
        overhead=overhead,
    )
    return Outcome(
        attempted=_sends(plain + traced),
        failed=0,
        metrics={name: (value, None) for name, value in metrics.items()},
        problems=problems,
    )


# -- macro-columnar ------------------------------------------------------------------


def macro_doc(seed: int, days: int = MACRO_DAYS) -> dict:
    doc = json.loads(MACRO_DOC.read_text(encoding="utf-8"))
    doc["seed"] = seed
    doc["traffic"]["duration"] = days * 86400.0
    return doc


def macro_reference(seed: int, days: int = MACRO_DAYS) -> dict:
    """The direct executor's digests for the macro world at ``seed``."""
    from repro.obs.manifest import accounting_digest
    from repro.scenario import compile_scenario

    result = compile_scenario(macro_doc(seed, days)).scenario("direct").run()
    return {
        "sends": result.sends_attempted,
        "cuts": list(result.cut_digests),
        "final": accounting_digest(result.network),
    }


def _reference_key(seed: int) -> str:
    """Cache key: the world document plus every source file it runs."""
    digest = hashlib.sha256(
        json.dumps(macro_doc(seed), sort_keys=True).encode("utf-8")
    )
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:24]


def _reference_in_child(seed: int) -> dict:
    """:func:`macro_reference`, once per seed and source tree.

    Runs in a helper process, which keeps the direct run's memory out of
    this process's peak RSS, and is cached in the checkout's scratch
    directory: a later run with the same seed over the same sources
    reuses it instead of repeating the 30-second direct run.
    """
    cache = SCRATCH / "reference" / f"macro-{seed}-{_reference_key(seed)}.json"
    if cache.is_file():
        return json.loads(cache.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--reference",
         "macro-columnar", "--seed", str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference run failed: {proc.stderr[-2000:]}")
    text = proc.stdout.strip().splitlines()[-1]
    cache.parent.mkdir(parents=True, exist_ok=True)
    partial = cache.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(text, encoding="utf-8")
    partial.replace(cache)
    return json.loads(text)


def macro_check(result, reference: dict) -> list[str]:
    """Output checks for one columnar run against the direct reference."""
    from repro.obs.manifest import accounting_digest

    problems = []
    if result.sends_attempted != reference["sends"]:
        problems.append(
            f"sends {result.sends_attempted} != reference {reference['sends']}"
        )
    if list(result.cut_digests) != reference["cuts"]:
        problems.append("per-cut accounting digests differ from direct")
    if accounting_digest(result.network) != reference["final"]:
        problems.append("final accounting digest differs from direct")
    if not result.conserved:
        problems.append("total value not conserved")
    if not result.all_reconciliations_consistent:
        problems.append("a reconciliation was inconsistent")
    return problems


def _macro_units(plan, seconds: float, reference: dict, problems: list[str]):
    """Timed columnar runs, each checked after the window is spent."""
    results = []

    def unit(_index):
        result = plan.scenario("columnar").run()
        results.append(result)
        return {"sends": result.sends_attempted}

    units = _timed_units(unit, seconds)
    for result in results:
        problems.extend(macro_check(result, reference))
    return units


def run_macro(
    seed: int, seconds: float, trace: bool, *, reference=None,
    days: int = MACRO_DAYS,
) -> Outcome:
    from repro.scenario import compile_scenario

    setup_s = None if trace else measure_setup("macro-columnar")
    if reference is None:
        reference = _reference_in_child(seed)
    plan = compile_scenario(macro_doc(seed, days))
    problems: list[str] = []

    def run_units(window):
        return _macro_units(plan, window, reference, problems)

    if trace:
        return _layer_outcome(*_traced(run_units, seconds), problems)
    units = run_units(seconds)
    return Outcome(
        attempted=_sends(units),
        failed=0,
        metrics=_end_to_end(units, setup_s),
        problems=problems,
        notes={"units": len(units), "reference_sends": reference["sends"],
               "wall_clock_rate": _wall_rate(units)},
    )


def macro_setup_probe() -> None:
    """Fresh process to first chunk offered: import, compile, build."""
    from repro.columnar.plan import merge_column_streams
    from repro.scenario import compile_scenario
    from repro.sim.rng import SeededStreams

    scenario = compile_scenario(macro_doc(PROBE_SEED)).scenario("columnar")
    scenario.build_network()
    chunks = merge_column_streams(
        scenario.workload_column_streams(SeededStreams(scenario.seed))
    )
    next(iter(chunks))


# -- fuzz-campaign -------------------------------------------------------------------


def reseed(doc: dict, seed: int, cycle: int, index: int) -> dict:
    """``doc`` with its traffic seed drawn from the benchmark seed."""
    from repro.sim.rng import derive_seed

    out = dict(doc)
    out["seed"] = derive_seed(seed, f"cycle{cycle}:world{index}") % (1 << 31)
    return out


class _SendCounter:
    """Sums ``sends_attempted`` over every ``run_plan`` the oracle makes."""

    def __init__(self) -> None:
        self.sends = 0

    def __enter__(self):
        import repro.scenario.fuzz as fuzz

        self._fuzz = fuzz
        self._original = original = fuzz.run_plan

        def counted(*args, **kwargs):
            run = original(*args, **kwargs)
            self.sends += run["manifest"].extra["sends_attempted"]
            return run

        fuzz.run_plan = counted
        return self

    def __exit__(self, *exc) -> None:
        self._fuzz.run_plan = self._original


def _save_failing_world(doc: dict, cycle: int, index: int) -> str:
    """Write the re-seeded world that failed, so it can be replayed."""
    from repro.scenario.schema import canonical_dump

    FUZZ_FAILURES.mkdir(parents=True, exist_ok=True)
    path = FUZZ_FAILURES / f"pass{cycle}-world{index}-seed{doc['seed']}.json"
    path.write_text(canonical_dump(doc), encoding="utf-8")
    return str(path)


def fuzz_pass(seed: int, cycle: int) -> dict:
    """One campaign pass over the corpus; returns the unit record.

    The campaign report's replay tokens name the corpus worlds before
    re-seeding, so each failure is reported with the re-seeded world it
    actually ran, written out for ``repro run``.
    """
    from repro.scenario.fuzz import check_world, run_fuzz

    index = iter(range(CORPUS_WORLDS))
    failures = []
    unconfirmed = None

    def oracle(doc):
        nonlocal unconfirmed
        if unconfirmed is not None:
            # run_fuzz's shrink re-checks a failing world once before
            # trying candidates (max_shrink_steps=0 allows none).
            reason, unconfirmed = unconfirmed, None
            return reason
        world = next(index)
        reseeded = reseed(doc, seed, cycle, world)
        reason = check_world(reseeded, shards=FUZZ_SHARDS)
        if reason is not None:
            unconfirmed = reason
            path = _save_failing_world(reseeded, cycle, world)
            failures.append(
                f"corpus world {world} of campaign {CORPUS_CAMPAIGN}, traffic "
                f"re-seeded to {reseeded['seed']} (replay: repro run {path}): "
                f"{reason}"
            )
        return reason

    with _SendCounter() as counter:
        report = run_fuzz(
            count=CORPUS_WORLDS, seed=CORPUS_CAMPAIGN, shards=FUZZ_SHARDS,
            check=oracle, max_shrink_steps=0,
        )
    return {
        "sends": counter.sends,
        "passed": report["passed"],
        "failures": failures,
    }


def _fuzz_units(seed: int, seconds: float):
    return _timed_units(lambda index: fuzz_pass(seed, index), seconds)


def _fuzz_problems(units) -> list[str]:
    return [
        f"fuzz pass failed: {reason}"
        for unit in units if not unit["passed"]
        for reason in unit["failures"] or ["report not passed"]
    ]


def run_fuzz_campaign(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        # Both halves replay the same passes, so the overhead compares
        # identical work.
        plain, traced, tracer, overhead = _traced(
            lambda window: _fuzz_units(seed, window), seconds
        )
        return _layer_outcome(
            plain, traced, tracer, overhead, _fuzz_problems(plain + traced)
        )
    setup_s = measure_setup("fuzz-campaign")
    units = _fuzz_units(seed, seconds)
    return Outcome(
        attempted=_sends(units),
        failed=0,
        metrics=_end_to_end(units, setup_s),
        problems=_fuzz_problems(units),
        notes={"passes": len(units), "wall_clock_rate": _wall_rate(units)},
    )


def fuzz_setup_probe() -> None:
    """Fresh process to first request offered for the corpus' first world."""
    from repro.scenario import compile_scenario
    from repro.scenario.fuzz import world_seed
    from repro.scenario.generate import generate_doc
    from repro.sim.rng import SeededStreams
    from repro.sim.workload import merge_workloads

    scenario = compile_scenario(
        generate_doc(world_seed(CORPUS_CAMPAIGN, 0))
    ).scenario("direct")
    scenario.build_network()
    next(merge_workloads(*scenario.workload_streams(SeededStreams(scenario.seed))))
