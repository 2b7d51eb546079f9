#!/usr/bin/env python3
"""Field-by-field comparison of result files: how far every number moved.

Given pairs of files (JSON result envelopes or CSV tables), prints for each
pair and each field that moved the number of values compared, how many
moved, and the largest relative and absolute move, then the count of the
fields that did not move. A JSON field is its key path with list positions
folded into ``[]`` (``data.entries[].qceff``); a CSV field is a column
(``t1_s[]``). A field whose type or length differs between the two files, or
that only one file has, is listed with a note, never skipped. Values that
are not numbers are compared for equality.

Example:
    python tests/golden_diff.py old/a1.json new/a1.json old/b1.json new/b1.json

Exits 0 when nothing moved, 1 when anything did, 2 on a usage error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class FieldMove:
    """The moves of one numeric field, or the other differences of one field."""

    name: str
    compared: int = 0
    moved: int = 0
    max_rel: float = 0.0
    max_abs: float = 0.0
    notes: list[str] = field(default_factory=list)

    def add(self, old, new) -> None:
        self.compared += 1
        if _is_number(old) and _is_number(new):
            if old == new or (math.isnan(old) and math.isnan(new)):
                return
            self.moved += 1
            move = abs(new - old)
            rel = move / abs(old) if old != 0 else math.inf
            self.max_abs = max(self.max_abs, move) if not math.isnan(move) else math.inf
            self.max_rel = max(self.max_rel, rel) if not math.isnan(rel) else math.inf
        elif old != new:
            self.moved += 1


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kind(value) -> str:
    if _is_number(value):
        return "number"
    return {dict: "object", list: "list", str: "string", bool: "bool",
            type(None): "null"}.get(type(value), type(value).__name__)


def _walk(old, new, path: str, fields: dict[str, FieldMove]) -> None:
    """Pair the leaves of two JSON values, adding each pair to its field."""
    name = path or "<root>"
    entry = fields.setdefault(name, FieldMove(name))
    if _kind(old) != _kind(new):
        # the field is reported as moved; its values are not paired
        entry.notes.append(f"type {_kind(old)} -> {_kind(new)}")
        entry.compared += 1
        entry.moved += 1
    elif isinstance(old, dict):
        for key in sorted(set(old) | set(new)):
            child = f"{path}.{key}" if path else key
            if key in old and key in new:
                _walk(old[key], new[key], child, fields)
            else:
                side = "old" if key in new else "new"
                fields.setdefault(child, FieldMove(child)).notes.append(f"absent in {side}")
    elif isinstance(old, list):
        if len(old) != len(new):
            entry.notes.append(f"length {len(old)} -> {len(new)}")
        for a, b in zip(old, new):
            _walk(a, b, f"{path}[]", fields)
    else:
        entry.add(old, new)


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: Path) -> dict[str, list]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {name: [_csv_cell(row[k]) if k < len(row) else None for row in body]
            for k, name in enumerate(header)}


def _read(path: Path):
    if path.suffix == ".csv":
        return _read_csv(path)
    return json.loads(path.read_text(encoding="utf-8"))


def diff_files(old_path, new_path) -> list[FieldMove]:
    """Per-field moves from ``old_path`` to ``new_path``, in field order; a
    CSV column is a list field, so a changed row count is a length change."""
    fields: dict[str, FieldMove] = {}
    _walk(_read(Path(old_path)), _read(Path(new_path)), "", fields)
    return [f for f in fields.values() if f.compared or f.notes]


def report(old_path, new_path, moves: list[FieldMove]) -> str:
    shown = [m for m in moves if m.moved or m.notes]
    lines = [f"{old_path} -> {new_path}"]
    width = max([len(m.name) for m in shown] + [5])
    lines.append(f"  {'field':<{width}}  {'values':>6}  {'moved':>5}  "
                 f"{'max_rel':>9}  {'max_abs':>9}")
    for m in shown:
        line = (f"  {m.name:<{width}}  {m.compared:>6}  {m.moved:>5}  "
                f"{m.max_rel:>9.2e}  {m.max_abs:>9.2e}")
        lines.append(line + "".join(f"  [{note}]" for note in m.notes))
    lines.append(f"  ({len(moves) - len(shown)} other fields identical)")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if not argv or len(argv) % 2:
        sys.stderr.write("usage: golden_diff.py OLD NEW [OLD NEW ...]\n")
        return 2
    any_moved = False
    for old_path, new_path in zip(argv[::2], argv[1::2]):
        moves = diff_files(old_path, new_path)
        any_moved |= any(m.moved or m.notes for m in moves)
        print(report(old_path, new_path, moves))
    return 1 if any_moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
