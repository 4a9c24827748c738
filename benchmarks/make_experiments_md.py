#!/usr/bin/env python3
"""Render benchmarks/results.jsonl into EXPERIMENTS.md's measured tables.

Run after a benchmark pass::

    python -m pytest benchmarks --benchmark-disable -o addopts="" -q
    python benchmarks/make_experiments_md.py

The results file holds one record per experiment id in :func:`sort_key`
order; :func:`store_record` replaces one in place, so a partial pass
(``-k e3``) updates only its own experiments.

Two marked blocks are generated: one table per experiment id between
the ``BEGIN`` and ``END`` marker lines, and the E20 overload table with
its plateau figure, rendered from ``BENCH_overload.json``
(``benchmarks/bench_overload.py`` writes it). The prose around them
(the reproduction summary, the rest of the E20 and E21 sections) is
written by hand and kept byte for byte.
"""

import json
import pathlib
import re

HERE = pathlib.Path(__file__).parent
RESULTS = HERE / "results.jsonl"
OUTPUT = HERE.parent / "EXPERIMENTS.md"
OVERLOAD = HERE.parent / "BENCH_overload.json"

BEGIN = "<!-- BEGIN tables rendered from benchmarks/results.jsonl -->\n"
END = "<!-- END tables rendered from benchmarks/results.jsonl -->\n"
E20_BEGIN = "<!-- BEGIN E20 table rendered from BENCH_overload.json -->\n"
E20_END = "<!-- END E20 table rendered from BENCH_overload.json -->\n"


def format_cell(value):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(rows):
    if not rows:
        return "*(no rows)*\n"
    # Rows may differ in shape (the arena's count rows and phase
    # rows share one record), so the columns are every key, in order of
    # first appearance.
    keys = list(dict.fromkeys(key for row in rows for key in row))
    out = ["| " + " | ".join(keys) + " |"]
    out.append("|" + "|".join("---" for _ in keys) + "|")
    for row in rows:
        out.append(
            "| " + " | ".join(format_cell(row.get(k, "")) for k in keys) + " |"
        )
    return "\n".join(out) + "\n"


def sort_key(name):
    """E-numbered experiments in numeric order, then every other id."""
    match = re.match(r"E(\d+)", name)
    return (0, int(match[1]), name) if match else (1, 0, name)


def read_records(results=RESULTS):
    """The results file's records, keyed by experiment id."""
    if not results.exists():
        return {}
    records = map(json.loads, results.read_text().splitlines())
    return {record["experiment"]: record for record in records}


def store_record(record, results=RESULTS):
    """Put ``record`` in the results file in place of its experiment's."""
    records = read_records(results)
    records[record["experiment"]] = record
    results.write_text(
        "".join(
            json.dumps(records[name]) + "\n"
            for name in sorted(records, key=sort_key)
        )
    )


def render_tables(records):
    parts = []
    for name in sorted(records, key=sort_key):
        record = records[name]
        parts.append(f"### {name}\n")
        parts.append(f"**Claim:** {record['claim']}\n")
        parts.append(render_table(record["rows"]))
        parts.append("")
    return "\n".join(parts)


def render_overload(sweep):
    """The E20 table and plateau sentence from a ``BENCH_overload.json``."""
    rows = [
        {
            "mult": row["multiplier"],
            "offered/s": row["offered_per_sec"],
            "goodput/s": row["goodput_per_sec"],
            "accepted": row["accepted"],
            "shed": row["shed"],
            "bounced": row["bounced"],
            "peakq": row["peak_queue"],
            "monitors": "green" if row["monitor_green"] else "red",
        }
        for row in sweep["rows"]
    ]
    peak = max(row["goodput_per_sec"] for row in sweep["rows"])
    last = sweep["rows"][-1]
    shortfall = (peak - last["goodput_per_sec"]) / peak
    return (
        render_table(rows)
        + f"\nGoodput at {last['multiplier']:g}× is within {shortfall:.1%} "
        f"of the sweep peak (bar: {sweep['goodput_tolerance']:.0%}).\n"
    )


def _splice(document, begin, end, body):
    """``document`` with the block between ``begin`` and ``end`` replaced."""
    head, found_begin, rest = document.partition(begin)
    _, found_end, tail = rest.partition(end)
    if not (found_begin and found_end):
        raise SystemExit(f"EXPERIMENTS.md lacks the markers {begin.strip()}")
    return head + begin + body + end + tail


def render(document, records):
    """``document`` with its marked block replaced by fresh tables."""
    return _splice(document, BEGIN, END, render_tables(records))


def main(results=RESULTS, output=OUTPUT, overload=OVERLOAD) -> None:
    if not results.exists():
        raise SystemExit(
            "no benchmarks/results.jsonl — run "
            "`python -m pytest benchmarks --benchmark-disable` first"
        )
    records = read_records(results)
    document = render(output.read_text(), records)
    sweep = json.loads(overload.read_text())
    document = _splice(document, E20_BEGIN, E20_END, render_overload(sweep))
    output.write_text(document)
    print(f"wrote {output} ({len(records)} experiments, E20 from {overload.name})")


if __name__ == "__main__":
    main()
