"""Deterministic CSV emission shared by the CLI commands.

Comma-delimited with a header row.  Every cell arrives as a string, its
numbers rendered by the caller with 17 significant digits, so repeated
runs are byte-identical and round-trip exactly.
"""

from __future__ import annotations

from pathlib import Path


def write_csv(path: str | Path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
