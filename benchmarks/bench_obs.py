#!/usr/bin/env python3
"""Observability overhead benchmark: what does tracing cost?

Runs the canonical 3-ISP world (``examples/scenarios/canonical-3isp.yaml``,
the document behind ``repro run --trace``) in three configurations and records the results in ``BENCH_obs.json``:

* ``off``   — no recorder at all (every emit site is one attribute load
  plus one false branch; this is what production-scale runs pay);
* ``ring``  — full tracing into the default bounded :class:`RingSink`;
* ``jsonl`` — full tracing streamed line-by-line to a JSONL sink
  (written to ``os.devnull`` so the number isolates serialization cost
  from disk speed).

Each configuration runs ``--repeats`` times; spread is reported through
:func:`repro.sim.metrics.summary_stats` (the repo's single stddev
implementation — benchmarks must not reimplement it), and the headline
overhead percentages compare best-of-N times, which are robust to
scheduler noise.

The harness also *asserts observer-effect zero*: all three
configurations must produce identical scenario summaries, and the ring
and jsonl runs must agree on the trace digest (the recorder digests the
canonical line stream independently of which sink stores it). A tracer
that changed outcomes would be measuring a different system.

Usage::

    python benchmarks/bench_obs.py                # 7 repeats per mode
    python benchmarks/bench_obs.py --repeats 3    # quicker smoke run
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODES = ("off", "ring", "jsonl")
CANONICAL = ROOT / "examples" / "scenarios" / "canonical-3isp.yaml"


def canonical_plan(seed: int | None):
    """The canonical document, compiled; ``seed`` overrides its own."""
    from repro.scenario import compile_scenario, load

    doc = load(str(CANONICAL))
    if seed is not None:
        doc["seed"] = seed
    return compile_scenario(doc)


def run_once(mode: str, plan) -> dict:
    """One canonical run under ``mode``; returns timing and outcome."""
    from repro.obs.trace import JsonlSink, RingSink, TraceRecorder

    sink = None
    devnull = None
    if mode == "off":
        recorder = None
    elif mode == "ring":
        sink = RingSink()
        recorder = TraceRecorder(sink=sink)
    elif mode == "jsonl":
        devnull = open(os.devnull, "w", encoding="utf-8")
        sink = JsonlSink(devnull)
        recorder = TraceRecorder(sink=sink)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    scenario = plan.scenario()
    scenario.tracer = recorder
    start = time.perf_counter()
    result = scenario.run()
    elapsed = time.perf_counter() - start
    if devnull is not None:
        sink.close()
        devnull.close()
    return {
        "seconds": elapsed,
        "summary": result.summary(),
        "events": recorder.events_emitted if recorder else 0,
        "digest": recorder.digest() if recorder else None,
    }


def bench_mode(mode: str, plan, repeats: int) -> dict:
    """Repeat one mode and summarize its timings."""
    from repro.sim.metrics import summary_stats

    run_once(mode, plan)  # warm-up: import and allocator effects
    runs = [run_once(mode, plan) for _ in range(repeats)]
    seconds = [run["seconds"] for run in runs]
    stats = summary_stats(seconds)
    best = stats["min"]
    events = runs[0]["events"]
    return {
        "mode": mode,
        "repeats": repeats,
        "best_seconds": round(best, 4),
        "mean_seconds": round(stats["mean"], 4),
        "stddev_seconds": round(stats["stddev"], 4),
        "events": events,
        "events_per_sec": round(events / best, 1) if events else None,
        "summary": runs[0]["summary"],
        "digest": runs[0]["digest"],
        "_all_summaries_equal": all(
            run["summary"] == runs[0]["summary"] for run in runs
        ),
        "_all_digests_equal": all(
            run["digest"] == runs[0]["digest"] for run in runs
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=ROOT / "BENCH_obs.json",
        help="result file (default BENCH_obs.json at the repo root)",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and check only"
    )
    args = parser.parse_args()

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    plan = canonical_plan(args.seed)
    seed = plan.seed

    results: dict[str, dict] = {}
    for mode in MODES:
        print(f"[bench_obs] {mode}: {args.repeats} repeats ...", flush=True)
        measured = bench_mode(mode, plan, args.repeats)
        print(
            f"    best {measured['best_seconds']}s, "
            f"mean {measured['mean_seconds']}s "
            f"± {measured['stddev_seconds']}s"
            + (
                f", {measured['events']} events"
                if measured["events"]
                else ""
            ),
            flush=True,
        )
        results[mode] = measured

    failures: list[str] = []
    reference = results["off"]["summary"]
    for mode in MODES:
        if results[mode]["summary"] != reference:
            failures.append(
                f"observer effect: {mode} summary differs from off"
            )
        if not results[mode].pop("_all_summaries_equal"):
            failures.append(f"{mode}: summaries varied across repeats")
        if not results[mode].pop("_all_digests_equal"):
            failures.append(f"{mode}: trace digests varied across repeats")
    if results["ring"]["digest"] != results["jsonl"]["digest"]:
        failures.append("ring and jsonl trace digests differ")

    baseline = results["off"]["best_seconds"]
    overhead = {
        mode: round(
            100.0 * (results[mode]["best_seconds"] - baseline) / baseline, 1
        )
        for mode in ("ring", "jsonl")
    }
    for mode, pct in overhead.items():
        print(f"[bench_obs] {mode} overhead vs off: {pct:+.1f}%")

    for failure in failures:
        print(f"OBSERVER-EFFECT FAILURE: {failure}", file=sys.stderr)

    document = {
        "scenario": {"name": "canonical-3isp", "seed": seed},
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "repeats": args.repeats,
        "current": results,
        "overhead_pct_vs_off": overhead,
        "observer_effect_zero": not failures,
    }
    if not args.no_write:
        args.output.write_text(json.dumps(document, indent=2) + "\n")
        print(f"[bench_obs] wrote {args.output}")

    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
