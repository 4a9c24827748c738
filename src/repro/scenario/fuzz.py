"""Whole-world fuzzing: N generated scenarios through every executor.

:func:`run_fuzz` drives a seeded campaign: world ``i`` is generated from
``derive_seed(campaign_seed, "world:i")``, compiled once, and executed
on the full executor matrix — direct, columnar (when the world is
all-compliant) and the inline cluster at a fixed shard count. The
worlds' invariant manifests must be byte-identical across executors and
must report conservation; any violation is a failure. A failing world
is immediately shrunk (:mod:`repro.scenario.shrink`) to a minimal
still-failing document, and both the original and the minimal world are
written out as artifacts, so a nightly red run hands the next engineer a
two-line reproduction: ``repro fuzz --replay SEED:INDEX``.

Reports contain no wall-clock timestamps: the same campaign seed yields
byte-identical report text on every machine, red or green.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from ..errors import SimulationError
from ..sim.clock import DAY
from ..sim.rng import derive_seed
from .compiler import compile_scenario, run_plan
from .generate import generate_doc
from .schema import canonical_dump
from .shrink import shrink

__all__ = [
    "world_seed",
    "cluster_comparable",
    "check_world",
    "run_fuzz",
    "replay_world",
    "parse_replay",
    "format_report",
]


def world_seed(campaign_seed: int, index: int) -> int:
    """The generator seed of world ``index`` in a campaign."""
    return derive_seed(campaign_seed, f"world:{index}")


def cluster_comparable(doc: dict[str, Any]) -> bool:
    """Whether the epoch-barriered cluster must byte-match direct mode.

    The cluster delivers cross-ISP mail at the next epoch barrier, so a
    received credit lands later there than on the instant-delivery
    executors. That timing is observable exactly when a user's e-penny
    balance can bind mid-run — a credit arriving before vs. after their
    next send decides whether it clears. With *credit slack* — every
    user funded for a full run of limit-capped sending, with a one-day
    margin — no balance ever binds, delivery timing is unobservable in
    the ledger multiset, and byte-equality against the cluster is a
    theorem. Tight-balance worlds stay in the fuzz population but are
    compared on the instant-delivery executors only (the pinned corpus
    world in tests/test_scenario_fuzz.py documents the boundary).
    """
    economics = doc["economics"]
    duration = doc["traffic"]["duration"]
    windows = int(duration // DAY) + (1 if duration % DAY else 0)
    slack = economics["default_daily_limit"] * (windows + 1)
    return economics["default_user_balance"] >= slack


def check_world(doc: dict[str, Any], *, shards: int = 2) -> str | None:
    """Run one world across the executor matrix; None means healthy.

    The oracle: every executor's invariant manifest is byte-identical
    and every run conserves total value. Non-compliant worlds drop the
    columnar executor (it refuses them by design); tight-balance worlds
    drop the cluster (see :func:`cluster_comparable`); worlds with
    fewer ISPs than ``shards`` clamp the shard count.
    """
    plan = compile_scenario(doc)
    modes = ["direct"]
    if plan.all_compliant:
        modes.append("columnar")
    runs = {mode: run_plan(plan, mode) for mode in modes}
    if cluster_comparable(plan.doc):
        runs["cluster"] = run_plan(
            plan, "cluster", shards=min(shards, plan.doc["topology"]["n_isps"])
        )
    texts = {mode: run["manifest"].to_json() for mode, run in runs.items()}
    baseline = texts["direct"]
    diverged = sorted(mode for mode, text in texts.items() if text != baseline)
    if diverged:
        detail = []
        base_doc = runs["direct"]["manifest"].to_dict()
        for mode in diverged:
            other = runs[mode]["manifest"].to_dict()
            keys = sorted(
                key for key in base_doc if other.get(key) != base_doc[key]
            )
            detail.append(f"{mode} differs from direct on {keys}")
        return "invariant manifest divergence: " + "; ".join(detail)
    for mode, run in runs.items():
        if not run["manifest"].extra["conserved"]:
            return f"{mode}: total value not conserved"
    return None


def _fail_row(
    campaign_seed: int,
    index: int,
    doc: dict[str, Any],
    reason: str,
    minimal: dict[str, Any],
) -> dict[str, Any]:
    return {
        "index": index,
        "world_seed": world_seed(campaign_seed, index),
        "replay": f"{campaign_seed}:{index}",
        "reason": reason,
        "doc": doc,
        "minimal": minimal,
    }


def _write_artifacts(out: str, row: dict[str, Any]) -> list[str]:
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"world-{row['world_seed']}")
    paths = []
    for suffix, doc in (("", row["doc"]), ("-shrunk", row["minimal"])):
        path = f"{stem}{suffix}.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(canonical_dump(doc))
        paths.append(path)
    return paths


def run_fuzz(
    *,
    count: int,
    seed: int,
    shards: int = 2,
    out: str | None = None,
    check: Callable[[dict[str, Any]], str | None] | None = None,
    max_shrink_steps: int = 200,
) -> dict[str, Any]:
    """Fuzz ``count`` generated worlds; returns the campaign report dict.

    Args:
        out: Directory for failing-world artifacts (created on demand;
            nothing is written on a green campaign).
        check: Oracle override for tests; defaults to
            :func:`check_world` at ``shards``.
    """
    if count < 1:
        raise SimulationError("fuzz campaign needs count >= 1")
    oracle = check or (lambda doc: check_world(doc, shards=shards))
    failures = []
    for index in range(count):
        doc = generate_doc(world_seed(seed, index))
        reason = oracle(doc)
        if reason is None:
            continue
        minimal = shrink(
            doc,
            lambda candidate: oracle(candidate) is not None,
            max_steps=max_shrink_steps,
        )
        row = _fail_row(seed, index, doc, reason, minimal)
        if out:
            row["artifacts"] = _write_artifacts(out, row)
        failures.append(row)
    return {
        "seed": seed,
        "count": count,
        "shards": shards,
        "failures": failures,
        "passed": not failures,
    }


def parse_replay(token: str) -> tuple[int, int]:
    """Parse a ``SEED:INDEX`` replay token from a failure report."""
    try:
        seed_text, index_text = token.split(":", 1)
        return int(seed_text), int(index_text)
    except ValueError:
        raise SimulationError(
            f"replay token {token!r} is not of the form SEED:INDEX"
        ) from None


def replay_world(
    token: str,
    *,
    shards: int = 2,
    out: str | None = None,
    check: Callable[[dict[str, Any]], str | None] | None = None,
    max_shrink_steps: int = 200,
) -> dict[str, Any]:
    """Re-run (and re-shrink) one world from its failure-report token."""
    seed, index = parse_replay(token)
    oracle = check or (lambda doc: check_world(doc, shards=shards))
    doc = generate_doc(world_seed(seed, index))
    reason = oracle(doc)
    report: dict[str, Any] = {
        "seed": seed,
        "count": 1,
        "shards": shards,
        "failures": [],
        "passed": reason is None,
    }
    if reason is not None:
        minimal = shrink(
            doc,
            lambda candidate: oracle(candidate) is not None,
            max_steps=max_shrink_steps,
        )
        row = _fail_row(seed, index, doc, reason, minimal)
        if out:
            row["artifacts"] = _write_artifacts(out, row)
        report["failures"].append(row)
    return report


def format_report(report: dict[str, Any]) -> str:
    """Deterministic text rendering of a fuzz campaign report."""
    lines = [
        f"fuzz seed={report['seed']} worlds={report['count']} "
        f"shards={report['shards']} "
        f"verdict={'PASS' if report['passed'] else 'FAIL'}"
    ]
    for row in report["failures"]:
        lines.append(
            f"world {row['index']} (generator seed {row['world_seed']}): "
            f"{row['reason']}"
        )
        minimal = row["minimal"]
        topo = minimal["topology"]
        lines.append(
            f"  shrunk to {topo['n_isps']} ISPs x "
            f"{topo['users_per_isp']} users, "
            f"{minimal['traffic']['duration'] / 3600:.0f}h"
        )
        for path in row.get("artifacts", []):
            lines.append(f"  artifact {path}")
        lines.append(f"  replay with: repro fuzz --replay {row['replay']}")
    return "\n".join(lines)
