"""Deterministic CSV, the one place a number becomes text: a ``str`` cell is
written as it is, a Python int (a bool too) as its digits, any other number
with 17 significant digits, so repeated runs are byte-identical and floats
round-trip exactly.  ``cli.main`` is the only caller.
"""

from __future__ import annotations

from pathlib import Path


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    return str(int(v)) if isinstance(v, int) else format(v, ".17g")


def write_csv(path: str | Path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(map(_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
