"""Deterministic CSV, the one place a number becomes text: a ``str`` cell is
written as it is, a Python int (a bool too) as its digits, any other number
with 17 significant digits, so repeated runs are byte-identical and floats
round-trip exactly.  ``cli.main`` is the only caller.

A table is rendered by one ``%`` over all its cells, from one format per
row that depends only on the types of the row's cells, so no Python code
runs per cell.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path


@functools.cache
def _row_format(types: tuple) -> str:
    return ",".join("%s" if issubclass(t, str) else "%d" if issubclass(t, int) else "%.17g"
                    for t in types)


def write_csv(path: str | Path, rows) -> None:
    rows = list(rows)
    formats = "\n".join([_row_format(tuple(map(type, row))) for row in rows])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(formats % tuple(itertools.chain.from_iterable(rows)) + "\n",
                    encoding="utf-8")
