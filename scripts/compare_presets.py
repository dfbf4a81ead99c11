#!/usr/bin/env python3
"""Compare two output directories of preset_parity.sh, file by file.

    python3 scripts/compare_presets.py OLD NEW

For each CSV or JSON output in OLD it prints the number of rows, the
number of cells whose text differs in NEW, and the worst relative change
among them (|new - old| / |old|, the absolute change where old is 0), with
its row, its column and its old -> new text, so that a change of a value
at roundoff level reads as such.  Each stderr file (.err) is compared
line by line, and every differing pair of lines is printed.
A JSON output is read as a table of its rows, plus one row of its
convergence_max_rel_change with the status "convergence"; every other
metadata key that differs, except created_utc, is printed by its dotted
name (spec.fixed.delta_f), and the rows are still compared.  It exits 1
when the two directories do not hold the same file names, or an output
differs in its header, its metadata, its row count, a row's status, or
which cells are empty (an undefined g2), or a stderr file in its number
of lines; otherwise it exits 0, however far the values moved.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

OUTPUTS = ("*.csv", "*.json", "*.err")


def _leaves(value, prefix: str = "") -> dict:
    """The leaves of nested JSON objects, by dotted key."""
    if not isinstance(value, dict) or not value:
        return {prefix: value}
    leaves = {}
    for key, item in value.items():
        leaves |= _leaves(item, f"{prefix}.{key}" if prefix else key)
    return leaves


def _shown(leaves: dict, key: str) -> str:
    return json.dumps(leaves[key]) if key in leaves else "absent"


def _table(path: Path) -> tuple[list[list[str]], dict]:
    """The header and the rows of an output, every cell as text, and the
    leaves of its metadata."""
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return list(csv.reader(f)), {}
    data = json.loads(path.read_text())
    metadata, rows = data["metadata"], data["rows"]
    header = list(rows[0]) if rows else []
    convergence = metadata.pop("convergence_max_rel_change", None)
    if convergence is not None:
        rows = rows + [dict.fromkeys(header) | convergence | {"status": "convergence"}]
    del metadata["created_utc"]  # differs between runs by design
    cells = [["" if row[key] is None else json.dumps(row[key]) for key in header] for row in rows]
    return [header] + cells, _leaves(metadata)


def _relative_change(old: str, new: str) -> float:
    a, b = float(old), float(new)
    return abs(b - a) / abs(a) if a else abs(b - a)


def compare(old: Path, new: Path) -> tuple[str, list[str]]:
    """A summary line for one CSV pair and the mismatches that fail it."""
    (old_rows, old_meta), (new_rows, new_meta) = _table(old), _table(new)
    if old_rows[:1] != new_rows[:1]:
        return f"{old.name}: header differs", [f"{old.name}: header differs"]
    mismatches = [
        f"{old.name}: metadata {key} {_shown(old_meta, key)} -> {_shown(new_meta, key)}"
        for key in sorted(old_meta.keys() | new_meta.keys())
        if _shown(old_meta, key) != _shown(new_meta, key)
    ]
    header, old_rows, new_rows = old_rows[0], old_rows[1:], new_rows[1:]
    if len(old_rows) != len(new_rows):
        problem = f"{old.name}: {len(old_rows)} rows in OLD, {len(new_rows)} in NEW"
        return problem, mismatches + [problem]
    status = header.index("status")
    moved = []  # (relative change, row, column, old, new) per moved cell
    for n, (row_old, row_new) in enumerate(zip(old_rows, new_rows), start=1):
        if row_old[status] != row_new[status]:
            mismatches.append(f"{old.name} row {n}: status {row_old[status]} -> {row_new[status]}")
        for column, (a, b) in enumerate(zip(row_old, row_new)):
            if column == status or a == b:
                continue
            if not a or not b:
                mismatches.append(f"{old.name} row {n}: {header[column]} {a!r} -> {b!r}")
                continue
            moved.append((_relative_change(a, b), n, header[column], a, b))
    summary = f"{old.name}: {len(old_rows)} rows, {len(moved)} cells moved"
    if moved:
        change, n, column, a, b = max(moved, key=lambda cell: cell[0])
        summary += f", worst relative change {change:.2g} (row {n}, {column}: {a} -> {b})"
    return summary, mismatches


def compare_lines(old: Path, new: Path) -> tuple[str, list[str]]:
    """A summary of one stderr pair, with each differing pair of lines, and
    the mismatch that fails it: a different number of lines."""
    old_lines, new_lines = old.read_text().splitlines(), new.read_text().splitlines()
    if len(old_lines) != len(new_lines):
        problem = f"{old.name}: {len(old_lines)} lines in OLD, {len(new_lines)} in NEW"
        return problem, [problem]
    differ = [(n, a, b) for n, (a, b) in enumerate(zip(old_lines, new_lines), start=1) if a != b]
    summary = f"{old.name}: {len(old_lines)} lines, {len(differ)} differ"
    for n, a, b in differ:
        summary += f"\n  line {n} OLD: {a}\n  line {n} NEW: {b}"
    return summary, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    names = sorted(p.name for pattern in OUTPUTS for p in args.old.glob(pattern))
    new_names = sorted(p.name for pattern in OUTPUTS for p in args.new.glob(pattern))
    mismatches = []
    if names != new_names:
        mismatches.append(f"output names differ: OLD {names}, NEW {new_names}")
    for name in sorted(set(names) & set(new_names)):
        compared = compare_lines if name.endswith(".err") else compare
        summary, found = compared(args.old / name, args.new / name)
        print(summary)
        mismatches += found
    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
