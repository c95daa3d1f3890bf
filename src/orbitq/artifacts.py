"""The one file format of every CSV and JSON artifact.

CSV cells are written at full double precision: a float is its shortest
round-trip ``repr``, an int its decimal digits, a string as given. JSON
is indented by two spaces and ends with a newline. Both are plain
functions of their input, so reruns are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np


# rows converted and written per block, so a writer's memory does not
# grow with the artifact's length
_BLOCK_ROWS = 4096


def _cells(column):
    # str of a Python float is its shortest round-trip repr
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return map(str, values)


def write_csv(path: str | Path, header: str, columns: Sequence) -> None:
    """Write equal-length columns under a comma-separated header line.

    A column is an array or a list; numpy arrays are converted with
    ``tolist()`` so each cell is a Python float, int or str.
    """
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [_cells(c[start:start + _BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
