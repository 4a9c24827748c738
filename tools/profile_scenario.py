#!/usr/bin/env python3
"""Profile the canonical macro scenario under cProfile.

The macro benchmark (``benchmarks/bench_macro_scale.py``) answers "how
fast"; this tool answers "where does the time go". It runs the same
canonical scenario under :mod:`cProfile` and prints the hottest functions,
so a performance change can be judged by its effect on the actual hot
path rather than a guess.

Usage::

    python tools/profile_scenario.py                       # 100k, direct
    python tools/profile_scenario.py --mode columnar
    python tools/profile_scenario.py --mode engine_stream
    python tools/profile_scenario.py --top 40 --sort tottime
    python tools/profile_scenario.py --output /tmp/run.pstats

(`repro --profile <command>` offers the same view for any CLI command.)
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from bench_macro_scale import MODES, canonical_scenario  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--messages",
        type=int,
        default=100_000,
        help="scenario scale (default 100k: representative and quick)",
    )
    parser.add_argument("--mode", choices=MODES, default="direct")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="number of rows to print (default 25)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls", "pcalls", "filename"],
        help="pstats sort order (default cumulative)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        help="also dump raw stats here (inspect later with pstats)",
    )
    args = parser.parse_args()

    scenario = canonical_scenario(args.messages, args.seed)
    scenario.mode = "engine" if args.mode == "engine_stream" else args.mode

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = scenario.run()
    profiler.disable()
    elapsed = time.perf_counter() - start

    print(
        f"[profile_scenario] {args.mode}: {result.sends_attempted} msgs in "
        f"{elapsed:.2f}s (profiled) = "
        f"{result.sends_attempted / elapsed:,.0f} msgs/sec"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)
        print(f"[profile_scenario] raw stats written to {args.output}")


if __name__ == "__main__":
    main()
