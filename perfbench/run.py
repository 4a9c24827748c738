#!/usr/bin/env python3
"""The Zmail benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload macro-columnar --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run: it measures half the window
untraced and half with every layer boundary wrapped (see ``layers.py``)
and reports the per-layer table, the ``other`` remainder and the
tracing overhead. Every output is checked; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` and the exit
code is 0 only when every check held. Without this checkout's ``src/``
tree the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from harness import SourceMissing, host_info, use_checkout_source

WORKLOADS = ("macro-columnar", "fuzz-campaign", "smtp-submit")

#: End-to-end metrics in the JSON line: each holds within its
#: ``BENCHMARK.json`` bound from seed to seed on a shared 2-core host.
END_TO_END = ("setup_s", "msgs_per_s", "peak_rss_mb")
#: Printed with the rest but kept out of the JSON line. On a shared
#: 2-core host ``smtp-submit``'s latencies and knee move by tens of
#: percent between runs (host scheduling on its one core, store
#: checkpoint stalls), too much to bound a change by; the batch
#: workloads have no submissions and print them as n/a. ``error_rate``
#: reads 0 on every valid run (``failed``/``attempted`` carry it).
REPORTED_ONLY = (
    "sustained_msgs_per_s", "submit_p50_ms", "submit_p99_ms",
    "durable_p99_ms", "error_rate",
)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "macro-columnar":
        from batch import run_macro

        return run_macro(seed, seconds, trace)
    if name == "fuzz-campaign":
        from batch import run_fuzz_campaign

        return run_fuzz_campaign(seed, seconds, trace)
    from smtp_submit import run_smtp

    return run_smtp(seed, seconds, trace)


def setup_probe(name: str, store: str | None) -> None:
    """Build the workload's first offer, then report ``READY``."""
    if name == "macro-columnar":
        from batch import macro_setup_probe

        macro_setup_probe()
    elif name == "fuzz-campaign":
        from batch import fuzz_setup_probe

        fuzz_setup_probe()
    else:
        from smtp_submit import setup_probe as smtp_setup_probe

        smtp_setup_probe(store)
    print("READY", flush=True)


def _metric_table(outcome, trace: bool) -> dict[str, dict]:
    """Every metric by name with its unit, in report order."""
    from layers import PER_LAYER

    values = dict(outcome.metrics)
    if not trace:
        values["error_rate"] = (outcome.failed / max(outcome.attempted, 1), "ratio")
    names = list(PER_LAYER) if trace else [*END_TO_END, *REPORTED_ONLY]
    if set(values) != set(names):
        raise AssertionError(
            f"metric set mismatch: {sorted(set(values) ^ set(names))}"
        )
    table = {}
    for name in names:
        value, unit = values[name]
        table[name] = {
            "value": float(value),
            "unit": unit if unit is not None else PER_LAYER[name][0],
        }
    return table


def _result_line(outcome, table: dict[str, dict], trace: bool) -> dict:
    gated = table if trace else {name: table[name] for name in END_TO_END}
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": gated,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--reference", choices=("macro-columnar",),
                        help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        use_checkout_source()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        setup_probe(args.setup_probe, args.store)
        return 0
    if args.reference:
        from batch import macro_reference

        print(json.dumps(macro_reference(args.seed)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    host = host_info()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    table = _metric_table(outcome, bool(args.trace))
    result = _result_line(outcome, table, bool(args.trace))

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace} host {json.dumps(host)}")
    for key, value in outcome.notes.items():
        print(f"  {key}: {value}")
    for name, metric in table.items():
        gated = "" if name in result["metrics"] else "  (not in the JSON line)"
        value = metric["value"]
        shown = "n/a" if math.isnan(value) else f"{value:.6g}"
        print(f"  {name:28s} {shown:>16s} {metric['unit']}{gated}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
