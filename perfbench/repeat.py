#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workloads macro-columnar fuzz-campaign \
        --seeds 1-10 [--trace 1] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload and seed, one after another, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every metric the
median, the quartiles and the spread (quartile distance over median, the
steadiness figure ``BENCHMARK.json`` bounds). ``--out`` also writes the
summary with the host it was measured on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import BENCH_DIR, ROOT, host_info


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarise(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    record = {"host": host_info(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "trace": int(args.trace), "workloads": {}}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            results.append(json.loads(lines[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in results[-1]["metrics"].items()
            ), flush=True)
        if len(results) < 2:
            continue
        summary = {
            name: {
                "unit": metric["unit"],
                **summarise([r["metrics"][name]["value"] for r in results]),
            }
            for name, metric in results[0]["metrics"].items()
        }
        record["workloads"][workload] = {"runs": len(results), "metrics": summary}
        print(f"{workload}: {len(results)} runs")
        for name, stats in summary.items():
            print(f"  {name:28s} median {stats['median']:>14.6g} {stats['unit']:6s}"
                  f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                  f" spread {stats['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
