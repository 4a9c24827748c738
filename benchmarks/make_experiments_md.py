#!/usr/bin/env python3
"""Render benchmarks/results.jsonl into EXPERIMENTS.md's measured tables.

Run after a full benchmark pass::

    pytest benchmarks/ --benchmark-only -s
    python benchmarks/make_experiments_md.py

Only the block between the ``BEGIN`` and ``END`` marker lines is
generated: one table per experiment id, from its newest record. The prose
around it (the reproduction summary, the E20 and E21 sections) is
written by hand and kept byte for byte.
"""

import json
import pathlib
import re

HERE = pathlib.Path(__file__).parent
RESULTS = HERE / "results.jsonl"
OUTPUT = HERE.parent / "EXPERIMENTS.md"

BEGIN = "<!-- BEGIN tables rendered from benchmarks/results.jsonl -->\n"
END = "<!-- END tables rendered from benchmarks/results.jsonl -->\n"


def format_cell(value):
    if isinstance(value, float):
        return f"{value:,.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(rows):
    if not rows:
        return "*(no rows)*\n"
    # Rows may differ in shape (the arena's throughput rows and phase
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


def latest_records(lines):
    """The newest record per experiment id, in first-seen order.

    The file is append-only (interrupted runs never clobber it), so
    recency is decided by the ISO-8601 ``timestamp`` field; legacy
    records without one rank oldest, with file order breaking ties.
    """
    latest = {}
    for index, line in enumerate(lines):
        record = json.loads(line)
        recency = (record.get("timestamp", ""), index)
        name = record["experiment"]
        if name not in latest or recency >= latest[name][0]:
            latest[name] = (recency, record)
    return {name: record for name, (_, record) in latest.items()}


def sort_key(name):
    """E-numbered experiments in numeric order, then every other id."""
    match = re.match(r"E(\d+)", name)
    return (0, int(match[1]), name) if match else (1, 0, name)


def render_tables(records):
    parts = []
    for name in sorted(records, key=sort_key):
        record = records[name]
        parts.append(f"### {name}\n")
        parts.append(f"**Claim:** {record['claim']}\n")
        parts.append(render_table(record["rows"]))
        parts.append("")
    return "\n".join(parts)


def render(document, records):
    """``document`` with its marked block replaced by fresh tables."""
    head, begin, rest = document.partition(BEGIN)
    _, end, tail = rest.partition(END)
    if not (begin and end):
        raise SystemExit("EXPERIMENTS.md lacks the generated-table markers")
    return head + BEGIN + render_tables(records) + END + tail


def main(results=RESULTS, output=OUTPUT) -> None:
    if not results.exists():
        raise SystemExit(
            "no benchmarks/results.jsonl — run "
            "`pytest benchmarks/ --benchmark-only -s` first"
        )
    records = latest_records(results.read_text().splitlines())
    output.write_text(render(output.read_text(), records))
    print(f"wrote {output} ({len(records)} experiments)")


if __name__ == "__main__":
    main()
