#!/usr/bin/env python3
"""Restart-cost benchmark: O(dirty) store restore vs full-state reload.

The durable-service claim under test (ROADMAP item 3 / PR 8): an ISP
network with 1M+ accounts restarts in O(dirty-state), not O(users).
The benchmark builds a 4-ISP, million-user network, touches 1% of the
accounts through the tracked mutation funnels, commits the dirty set to
a WAL-mode SQLite store, then measures two restart strategies:

* ``dirty_restore``  — :func:`repro.store.restore_network`: genesis
  metadata + per-ISP aggregates + only the ever-dirty user records;
* ``full_reload``    — the same :func:`repro.store.restore_network` over
  a second store of the same network in which every user was committed:
  the O(users) restart in the one recovery format.

Methodology mirrors ``bench_cluster.py``: ``--warmups`` discarded runs
then ``--repeats`` measured runs per strategy, headline is best (min)
wall-clock, spread recorded via ``summary_stats``, host info embedded.

Three correctness gates run inside the benchmark — a restart that loses
money is not a restart:

* the restored network must be ``durable_digest``-identical to the live
  one (recovery equivalence);
* the restored hot set must equal the dirty count exactly (memory is
  bounded by the hot set, lazy genesis never materialises a clean user);
* the headline speedup must meet the ``>=10x`` acceptance floor.

Results land in ``BENCH_store.json`` at the repo root and one summary
record is appended to ``benchmarks/results.jsonl``.

Usage::

    python benchmarks/bench_store.py                 # full 1M-user run
    python benchmarks/bench_store.py --users 50000   # smoke scale
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import shutil
import sys
import tempfile
import time
import uuid

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

N_ISPS = 4
DIRTY_FRACTION = 0.01
SPEEDUP_TARGET = 10.0
RESULTS_PATH = HERE / "results.jsonl"


FULL_COMMIT_CHUNK = 100_000  # users per commit when writing every user


def build_committed_store(total_users: int, seed: int, store_path: str):
    """Genesis network + 1% dirty traffic committed at barrier 1.

    Returns ``(network, dirty_count)`` with the store written and closed
    on disk.
    """
    from repro.core import ZmailNetwork
    from repro.sim import Address
    from repro.store import (
        DurableStore,
        attach_tracker,
        commit_network,
        init_store,
    )

    users_per_isp = total_users // N_ISPS
    network = ZmailNetwork(
        n_isps=N_ISPS, users_per_isp=users_per_isp, seed=seed
    )
    store = DurableStore.create(store_path)
    init_store(store, network)
    tracker = attach_tracker(network)
    dirty = int(total_users * DIRTY_FRACTION)
    for i in range(dirty):
        network.fund_user(
            Address(i % N_ISPS, i // N_ISPS), epennies=1
        )
    commit_network(store, network, tracker, barrier=1)
    store.close()
    return network, dirty


def build_full_store(network, store_path: str) -> None:
    """The same network with every user committed, in bounded chunks."""
    from repro.store import (
        DirtyTracker,
        DurableStore,
        commit_network,
        init_store,
    )

    with DurableStore.create(store_path) as store:
        init_store(store, network)
        tracker = DirtyTracker()
        for isp_id in range(network.n_isps):
            for start in range(0, network.users_per_isp, FULL_COMMIT_CHUNK):
                stop = min(start + FULL_COMMIT_CHUNK, network.users_per_isp)
                tracker.dirty.update(
                    (isp_id, user_id) for user_id in range(start, stop)
                )
                commit_network(store, network, tracker, barrier=1)


def measure(name: str, once, warmups: int, repeats: int) -> dict:
    """Warmups discarded, repeats measured; best + spread recorded."""
    from repro.sim.metrics import summary_stats

    for i in range(warmups):
        print(f"[bench_store] {name}: warmup {i + 1}/{warmups} ...",
              flush=True)
        once()
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        once()
        elapsed = time.perf_counter() - start
        print(f"[bench_store] {name}: repeat {i + 1}/{repeats}: "
              f"{elapsed:.4f}s", flush=True)
        times.append(elapsed)
    stats = summary_stats(times)
    return {
        "best_seconds": round(min(times), 4),
        "seconds_mean": round(stats["mean"], 4),
        "seconds_stdev": round(stats["stddev"], 4),
        "repeats": repeats,
        "warmups": warmups,
    }


def append_results_record(document: dict) -> None:
    """One EXPERIMENTS.md-style record, same shape the conftest writes."""
    record = {
        "experiment": "store-restart-cost",
        "claim": (
            "a durable-store restart replays O(dirty) state and beats "
            "restoring every user by >=10x at 1M users with 1% dirty"
        ),
        "rows": [
            {
                "config": name,
                "best_seconds": run["best_seconds"],
                "seconds_mean": run["seconds_mean"],
                "seconds_stdev": run["seconds_stdev"],
            }
            for name, run in document["runs"].items()
        ],
        "speedup": document["speedup"],
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
        "--users", type=int, default=1_000_000,
        help="total account count across all ISPs (default 1M)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--warmups", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output", type=pathlib.Path, default=ROOT / "BENCH_store.json"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and check only"
    )
    args = parser.parse_args()

    from repro.store import DurableStore, durable_digest, restore_network

    workdir = tempfile.mkdtemp(prefix="bench_store_")
    store_path = os.path.join(workdir, "bench.db")
    full_path = os.path.join(workdir, "full.db")
    print(f"[bench_store] building {args.users} users, "
          f"{DIRTY_FRACTION:.0%} dirty ...", flush=True)
    network, dirty = build_committed_store(args.users, args.seed, store_path)
    build_full_store(network, full_path)
    live_digest = durable_digest(network)
    print(f"[bench_store] full store: "
          f"{os.path.getsize(full_path) / 1e6:.1f} MB, "
          f"dirty store: {os.path.getsize(store_path) / 1e6:.1f} MB",
          flush=True)

    failures = []
    hot_set = {}

    def dirty_restore():
        with DurableStore.open(store_path) as store:
            restored = restore_network(store)
        hot_set["materialized"] = sum(
            isp.ledger.materialized_count()
            for isp in restored.compliant_isps().values()
        )
        return restored

    def full_reload():
        with DurableStore.open(full_path) as store:
            return restore_network(store)

    # Correctness gates before any timing: both strategies must land on
    # the live network's durable digest.
    if durable_digest(dirty_restore()) != live_digest:
        failures.append("dirty restore diverged from the live network")
    if durable_digest(full_reload()) != live_digest:
        failures.append("full reload diverged from the live network")
    if hot_set["materialized"] != dirty:
        failures.append(
            f"restore materialised {hot_set['materialized']} accounts; "
            f"expected exactly the {dirty}-user dirty set"
        )

    runs = {
        "dirty_restore": measure(
            "dirty_restore", dirty_restore, args.warmups, args.repeats
        ),
        "full_reload": measure(
            "full_reload", full_reload, args.warmups, args.repeats
        ),
    }
    store_mb = {
        "full_store_mb": round(os.path.getsize(full_path) / 1e6, 1),
        "store_mb": round(os.path.getsize(store_path) / 1e6, 1),
    }
    shutil.rmtree(workdir, ignore_errors=True)
    achieved = round(
        runs["full_reload"]["best_seconds"]
        / runs["dirty_restore"]["best_seconds"],
        1,
    )
    met = achieved >= SPEEDUP_TARGET
    if not met:
        failures.append(
            f"speedup {achieved}x < {SPEEDUP_TARGET}x acceptance floor"
        )
    print(f"[bench_store] speedup: {achieved}x "
          f"(target {SPEEDUP_TARGET}x)", flush=True)

    document = {
        "scenario": {
            "n_isps": N_ISPS,
            "total_users": args.users,
            "dirty_fraction": DIRTY_FRACTION,
            "dirty_users": dirty,
            "seed": args.seed,
            **store_mb,
        },
        "methodology": {
            "warmups": args.warmups,
            "repeats": args.repeats,
            "headline": "best (min) wall-clock over repeats",
            "spread": "mean/stdev via repro.sim.metrics.summary_stats",
            "dirty_restore": "restore_network over WAL SQLite store",
            "full_reload": "restore_network over a store holding every user",
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "runs": runs,
        "hot_set": {
            "materialized_accounts": hot_set["materialized"],
            "dirty_accounts": dirty,
            "bounded": hot_set["materialized"] == dirty,
        },
        "speedup": {
            "target": SPEEDUP_TARGET,
            "achieved": achieved,
            "met": met,
        },
        "ok": not failures,
    }

    if not args.no_write:
        args.output.write_text(json.dumps(document, indent=2) + "\n")
        print(f"[bench_store] wrote {args.output}")
        append_results_record(document)
        print(f"[bench_store] appended record to {RESULTS_PATH}")

    for failure in failures:
        print(f"FAILURE: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
