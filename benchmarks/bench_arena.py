#!/usr/bin/env python3
"""Arena acceptance benchmark: the strategy-tournament phase diagram.

Runs the full registered matchup matrix (5 attackers x 4 defenders)
over ``--worlds`` seeded worlds (default 100 — the acceptance scale)
and checks the three things the subsystem promises:

* **byte reproducibility** — the whole tournament runs twice and the
  two canonical reports must be byte-identical (the same property CI's
  ``cmp`` smoke checks at mini scale);
* **invariants everywhere** — every cell must report ledger
  conservation and §4.4 consistency, and ``--verify`` cells are lowered
  and run through the cross-executor differential oracle;
* **the collapse region** — under default Zmail pricing
  (``zmail_static``), the phase extraction must contain a non-empty
  band of markets in which *no* attacker strategy is profitable in
  expectation, with its boundary (expected dollars per delivered
  message) recorded. This is the paper's economic claim, measured.

Throughput is recorded two ways: tournament cells/sec on the direct
match path, and a lowered-sweep figure — the first ``--lowered`` cells
lowered to plain DSL worlds and driven through the columnar batch
executor — so the "small matchups direct, large sweeps lowered" split
has numbers attached. Results land in ``BENCH_arena.json`` at the repo
root and one summary record is appended to ``benchmarks/results.jsonl``
with explicit executor mode strings (``direct`` / ``columnar``).

``--check-against BENCH_arena.json`` re-checks a fresh (usually smoke
scale) run's cells/sec against the committed reference with a loose
tolerance — the CI regression floor.

Usage::

    python benchmarks/bench_arena.py                    # full 100-world run
    python benchmarks/bench_arena.py --worlds 8         # smoke scale
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import sys
import time
import uuid

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

RESULTS_PATH = HERE / "results.jsonl"
BASELINE_DEFENDER = "zmail_static"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def run_tournament_once(worlds: int, periods: int, seed: int,
                        verify: int) -> tuple[dict, str, float]:
    from repro.arena import report_json, run_tournament

    start = time.perf_counter()
    report = run_tournament(
        seed=seed, worlds=worlds, periods=periods, verify=verify
    )
    elapsed = time.perf_counter() - start
    return report, report_json(report), elapsed


def lowered_columnar_sweep(report: dict, seed: int, count: int) -> dict:
    """Lower the first ``count`` cells and drive them columnar."""
    from repro.arena import cell_doc, cell_seed, lower_doc, run_match
    from repro.arena.worlds import generate_arena_doc
    from repro.scenario.compiler import compile_scenario, run_plan
    from repro.sim.rng import derive_seed

    cells = report["cells"][:count]
    worlds = {
        w["world"]: generate_arena_doc(
            derive_seed(seed, f"arena-world:{w['world']}"),
            periods=report["periods"],
        )
        for w in report["worlds"]
    }
    start = time.perf_counter()
    messages = 0
    for cell in cells:
        doc = cell_doc(worlds[cell["world"]], cell["attacker"],
                       cell["defender"])
        pilot = run_match(
            doc,
            seed=cell_seed(seed, cell["attacker"], cell["defender"],
                           cell["world"]),
        )
        plan = compile_scenario(lower_doc(doc, pilot))
        result = run_plan(plan, "columnar")
        extra = result["manifest"].extra
        if not extra["conserved"]:
            raise SystemExit(
                f"lowered cell {cell['attacker']} vs {cell['defender']} "
                f"world {cell['world']} violated conservation on columnar"
            )
        messages += extra["sends_attempted"]
    elapsed = time.perf_counter() - start
    return {
        "cells": len(cells),
        "messages": messages,
        "seconds": round(elapsed, 3),
        "messages_per_sec": round(messages / elapsed, 1) if elapsed else 0.0,
    }


def append_results_record(document: dict) -> None:
    """One EXPERIMENTS.md-style record, same shape the conftest writes."""
    sweep = document["throughput"]["lowered_columnar"]
    rows = [
        {
            "config": "tournament",
            # The executor that produced the number.
            "mode": "direct",
            "cells": document["scale"]["cells"],
            "best_seconds": document["throughput"]["tournament"]["seconds"],
            "cells_per_sec": document["throughput"]["tournament"][
                "cells_per_sec"
            ],
        },
        {
            "config": "lowered_sweep",
            "mode": "columnar",
            "cells": sweep["cells"],
            "messages": sweep["messages"],
            "best_seconds": sweep["seconds"],
            "messages_per_sec": sweep["messages_per_sec"],
        },
    ]
    for defender, phase in document["phase"].items():
        rows.append(
            {
                "config": f"phase@{defender}",
                "mode": "direct",
                "worlds": phase["worlds"],
                "profitable_worlds": phase["profitable_worlds"],
                "collapsed_worlds": phase["collapsed_worlds"],
                "collapse_boundary_ev": phase["collapse_boundary_ev"],
            }
        )
    record = {
        "experiment": "arena-tournament",
        "claim": (
            "under default Zmail pricing every attacker strategy is "
            "unprofitable in expectation below a measurable "
            "expected-value-per-message boundary (the collapse region), "
            "and the seeded tournament reproducing it is byte-identical "
            "across runs"
        ),
        "rows": rows,
        "host": document["host"],
        "run_id": uuid.uuid4().hex[:12],
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
    }
    with open(RESULTS_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--worlds", type=int, default=100,
        help="generated worlds per matchup (default 100, the acceptance "
        "scale)",
    )
    parser.add_argument("--periods", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--verify", type=int, default=3,
        help="cells lowered through the cross-executor differential "
        "oracle inside the tournament (default 3)",
    )
    parser.add_argument(
        "--lowered", type=int, default=5,
        help="cells for the lowered columnar throughput sweep (default 5)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=ROOT / "BENCH_arena.json"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and check only"
    )
    parser.add_argument(
        "--check-against", type=pathlib.Path, default=None,
        help="committed BENCH_arena.json to hold a cells/sec floor "
        "against (CI regression gate)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.6,
        help="allowed cells/sec regression fraction for --check-against "
        "(default 0.6: hosted runners are slow and noisy)",
    )
    args = parser.parse_args()

    from repro.arena import report_digest

    print(
        f"[bench_arena] tournament: full registry x {args.worlds} worlds "
        f"x {args.periods} periods (seed {args.seed}) ...", flush=True
    )
    report, text, elapsed = run_tournament_once(
        args.worlds, args.periods, args.seed, args.verify
    )
    cells = len(report["cells"])
    print(
        f"[bench_arena] {cells} cells in {elapsed:.1f}s = "
        f"{cells / elapsed:.2f} cells/sec", flush=True
    )

    print("[bench_arena] reproducibility: second full run ...", flush=True)
    report2, text2, elapsed2 = run_tournament_once(
        args.worlds, args.periods, args.seed, args.verify
    )

    failures = []
    if text != text2:
        failures.append("same-seed tournament reports are not byte-identical")
    else:
        print(
            f"[bench_arena] reports byte-identical "
            f"(digest {report_digest(report)})", flush=True
        )
    if not report["passed"]:
        failures.append(
            "tournament failed its own gates (conservation, consistency "
            f"or verification): verify={report['verify']}"
        )

    phase = report["phase"][BASELINE_DEFENDER]
    boundary = phase["collapse_boundary_ev"]
    print(
        f"[bench_arena] phase@{BASELINE_DEFENDER}: "
        f"{phase['collapsed_worlds']}/{phase['worlds']} worlds collapsed, "
        f"{phase['profitable_worlds']} profitable, "
        f"boundary ev {boundary}", flush=True
    )
    if phase["collapsed_worlds"] < 1 or boundary is None:
        failures.append(
            f"no collapse region under default Zmail pricing "
            f"({BASELINE_DEFENDER}): {phase}"
        )

    sweep = lowered_columnar_sweep(report, args.seed, args.lowered)
    print(
        f"[bench_arena] lowered columnar sweep: {sweep['cells']} cells, "
        f"{sweep['messages']} msgs in {sweep['seconds']}s = "
        f"{sweep['messages_per_sec']:,.0f} msgs/sec", flush=True
    )

    document = {
        "scale": {
            "attackers": report["attackers"],
            "defenders": report["defenders"],
            "worlds": args.worlds,
            "periods": args.periods,
            "seed": args.seed,
            "cells": cells,
            "verified_cells": report["verify"]["cells"],
        },
        "throughput": {
            "tournament": {
                "seconds": round(min(elapsed, elapsed2), 3),
                "cells_per_sec": round(cells / min(elapsed, elapsed2), 2),
            },
            "lowered_columnar": sweep,
        },
        "report_digest": report_digest(report),
        "byte_identical": text == text2,
        "phase": report["phase"],
        "collapse_boundary_ev": boundary,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "usable_cores": usable_cores(),
        },
    }

    if args.check_against:
        committed = json.loads(args.check_against.read_text())
        reference = committed["throughput"]["tournament"]["cells_per_sec"]
        measured = document["throughput"]["tournament"]["cells_per_sec"]
        floor = reference * (1.0 - args.tolerance)
        status = "OK" if measured >= floor else "REGRESSION"
        print(
            f"[bench_arena] cells/sec: {measured:.2f} "
            f"(committed {reference:.2f}, floor {floor:.2f}) {status}",
            flush=True,
        )
        if measured < floor:
            failures.append(
                f"tournament throughput regressed: {measured:.2f} "
                f"cells/sec < floor {floor:.2f}"
            )

    if failures:
        for failure in failures:
            print(f"[bench_arena] FAIL: {failure}", file=sys.stderr)
        raise SystemExit(1)

    if not args.no_write:
        args.output.write_text(
            json.dumps(document, sort_keys=True, indent=2) + "\n"
        )
        append_results_record(document)
        print(f"[bench_arena] wrote {args.output}", flush=True)
    print("[bench_arena] all gates passed", flush=True)


if __name__ == "__main__":
    main()
