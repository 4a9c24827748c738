#!/usr/bin/env python3
"""Overload benchmark: goodput vs. offered load under admission control.

The tentpole claim of the overload layer is *graceful degradation*: as
offered load climbs past the sustainable admission rate, goodput (mail
actually admitted and delivered per second) should plateau near the
configured rate instead of collapsing, queue memory should stay under
its hard bound, and no admitted message may vanish from the accounting.

This harness sweeps a flood multiplier over one fixed world — 3 ISPs
with an 8 msg/s admission rate, background user traffic, and a zombie
flood from isp0 aimed at isp1 scaled to ``multiplier x admit_rate``,
each point a scenario document deployed by ``chaos.campaign.deploy`` —
then checks three acceptance criteria:

* **plateau** — goodput at the highest multiplier (10x) is within 20%
  of the peak goodput across the sweep;
* **bounded memory** — the deferred-queue high-water mark never exceeds
  the configured ``queue_capacity``;
* **no lost accounting** — the overload monitor stays green (every
  admitted message was delivered or bounced) and e-penny conservation
  holds at quiescence.

Results land in ``BENCH_overload.json`` at the repo root and print as a
Markdown table. Deterministic for a given seed.

Usage::

    python benchmarks/bench_overload.py                # full sweep + checks
    python benchmarks/bench_overload.py --duration 60  # quicker sweep
    python benchmarks/bench_overload.py --no-write     # measure only
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from make_experiments_md import render_table

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

MULTIPLIERS = (0.5, 1.0, 2.0, 5.0, 10.0)
ADMIT_RATE = 8.0
GOODPUT_TOLERANCE = 0.20


def point_document(multiplier: float, *, duration: float) -> dict:
    """One offered-load point's world: background mail plus a zombie
    flood from isp0 at ``multiplier x ADMIT_RATE``, behind admission
    control."""
    return {
        "schema_version": 1,
        "name": f"overload-bench-{multiplier:g}x",
        "topology": {"n_isps": 3, "users_per_isp": 6},
        "traffic": {
            "duration": duration,
            "normal_rate_per_day": 2000.0,
            "floods": [{
                "attacker_isp": 0,
                "target_isp": 1,
                "rate_per_sec": multiplier * ADMIT_RATE,
                "duration": duration,
            }],
        },
        "reconcile": {"every": max(duration, 150.0)},
        "overload": {
            "enabled": True,
            "admit_rate": ADMIT_RATE,
            "admit_burst": 16,
            "queue_capacity": 64,
            "retry_max_interval": 30.0,
            "max_retries": 3,
        },
    }


def run_point(
    multiplier: float, *, seed: int, duration: float, drain_window: float
) -> dict:
    """Run one offered-load point; returns its measurement row."""
    from repro.chaos.campaign import deploy
    from repro.scenario import compile_scenario
    from repro.sim.rng import derive_seed

    plan = compile_scenario(point_document(multiplier, duration=duration))
    deployment, requests = deploy(
        plan, seed=derive_seed(seed, f"overload-bench:{multiplier}")
    )
    converged = deployment.run(
        requests, until=duration, drain_window=drain_window
    )
    network = deployment.network
    stats = deployment.stats()
    # Goodput counts work the system completed: admissions that went on
    # to the ledger/delivery path (immediate or after deferral), over the
    # offered-load window.
    goodput = stats["overload_accepted"] / duration
    return {
        "multiplier": multiplier,
        "offered_per_sec": round(stats["submits"] / duration, 2),
        "goodput_per_sec": round(goodput, 2),
        "accepted": stats["overload_accepted"],
        "shed": stats["overload_shed"],
        "bounced": stats["overload_bounced"],
        "peak_queue": stats["overload_peak_pending"],
        "queue_capacity": plan.doc["overload"]["queue_capacity"],
        "converged": converged,
        "conserved": network.total_value() == network.expected_total_value(),
        "monitor_green": stats["overload_violations"] == 0
        and stats["violations"] == 0,
    }


def check_criteria(rows: list[dict]) -> list[str]:
    """The acceptance criteria; returns human-readable failures."""
    failures: list[str] = []
    peak = max(row["goodput_per_sec"] for row in rows)
    worst = rows[-1]  # highest multiplier
    if worst["goodput_per_sec"] < (1.0 - GOODPUT_TOLERANCE) * peak:
        failures.append(
            f"goodput collapsed under flood: {worst['goodput_per_sec']}/s at "
            f"{worst['multiplier']}x vs peak {peak}/s "
            f"(tolerance {GOODPUT_TOLERANCE:.0%})"
        )
    for row in rows:
        label = f"{row['multiplier']}x"
        if row["peak_queue"] > row["queue_capacity"]:
            failures.append(
                f"{label}: queue high-water {row['peak_queue']} exceeds "
                f"bound {row['queue_capacity']}"
            )
        if not row["monitor_green"]:
            failures.append(f"{label}: invariant/overload monitor violation")
        if not row["conserved"]:
            failures.append(f"{label}: e-penny conservation broken")
        if not row["converged"]:
            failures.append(f"{label}: deployment failed to drain")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--duration", type=float, default=120.0,
        help="offered-load window per point, simulated seconds",
    )
    parser.add_argument(
        "--drain-window", type=float, default=400.0,
        help="extra simulated time allowed to drain each point",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=ROOT / "BENCH_overload.json"
    )
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args()

    rows = []
    for multiplier in MULTIPLIERS:
        print(
            f"[bench_overload] {multiplier}x "
            f"({multiplier * ADMIT_RATE:.0f} flood msgs/s) ...",
            flush=True,
        )
        rows.append(
            run_point(
                multiplier,
                seed=args.seed,
                duration=args.duration,
                drain_window=args.drain_window,
            )
        )

    print(render_table(rows))
    failures = check_criteria(rows)
    for failure in failures:
        print(f"CRITERION FAILED: {failure}", file=sys.stderr)
    verdict = "PASS" if not failures else "FAIL"
    print(f"[bench_overload] verdict: {verdict}")

    if not args.no_write:
        document = {
            "admit_rate": ADMIT_RATE,
            "seed": args.seed,
            "duration": args.duration,
            "goodput_tolerance": GOODPUT_TOLERANCE,
            "rows": rows,
            "passed": not failures,
            "failures": failures,
        }
        args.output.write_text(json.dumps(document, indent=2) + "\n")
        print(f"[bench_overload] wrote {args.output}")

    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
