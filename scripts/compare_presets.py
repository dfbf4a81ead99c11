#!/usr/bin/env python3
"""Compare two output directories of preset_parity.sh, file by file.

    python3 scripts/compare_presets.py OLD NEW

For each CSV or JSON output in OLD it prints the number of rows, the
number of cells whose text differs in NEW, and the worst relative change
among them (|new - old| / |old|, the absolute change where old is 0).
A JSON output is read as a table of its rows, plus one row of its
convergence_max_rel_change with the status "convergence"; its metadata
must otherwise match, except created_utc.  It exits 1 when the two
directories do not hold the same file names, or an output differs in
its header, its row count, a row's status, or which cells are empty (an
undefined g2); otherwise it exits 0, however far the values moved.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

OUTPUTS = ("*.csv", "*.json")


def _rows(path: Path) -> list[list[str]]:
    """The header and the rows of an output, every cell as text."""
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return list(csv.reader(f))
    data = json.loads(path.read_text())
    metadata, rows = data["metadata"], data["rows"]
    header = list(rows[0]) if rows else []
    convergence = metadata.pop("convergence_max_rel_change", None)
    if convergence is not None:
        rows = rows + [dict.fromkeys(header) | convergence | {"status": "convergence"}]
    del metadata["created_utc"]  # differs between runs by design
    cells = [["" if row[key] is None else json.dumps(row[key]) for key in header] for row in rows]
    # The rest of the metadata joins the header, so a change to it is a header change.
    return [header + [json.dumps(metadata, sort_keys=True)]] + [row + [""] for row in cells]


def _relative_change(old: str, new: str) -> float:
    a, b = float(old), float(new)
    return abs(b - a) / abs(a) if a else abs(b - a)


def compare(old: Path, new: Path) -> tuple[str, list[str]]:
    """A summary line for one CSV pair and the mismatches that fail it."""
    old_rows, new_rows = _rows(old), _rows(new)
    if old_rows[:1] != new_rows[:1]:
        return f"{old.name}: header differs", [f"{old.name}: header differs"]
    header, old_rows, new_rows = old_rows[0], old_rows[1:], new_rows[1:]
    if len(old_rows) != len(new_rows):
        problem = f"{old.name}: {len(old_rows)} rows in OLD, {len(new_rows)} in NEW"
        return problem, [problem]
    status = header.index("status")
    mismatches, moved, worst = [], 0, 0.0
    for n, (row_old, row_new) in enumerate(zip(old_rows, new_rows), start=1):
        if row_old[status] != row_new[status]:
            mismatches.append(f"{old.name} row {n}: status {row_old[status]} -> {row_new[status]}")
        for column, (a, b) in enumerate(zip(row_old, row_new)):
            if column == status or a == b:
                continue
            if not a or not b:
                mismatches.append(f"{old.name} row {n}: {header[column]} {a!r} -> {b!r}")
                continue
            moved += 1
            worst = max(worst, _relative_change(a, b))
    summary = f"{old.name}: {len(old_rows)} rows, {moved} cells moved"
    if moved:
        summary += f", worst relative change {worst:.2g}"
    return summary, mismatches


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
        summary, found = compare(args.old / name, args.new / name)
        print(summary)
        mismatches += found
    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
