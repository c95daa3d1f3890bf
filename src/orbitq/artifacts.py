"""The one file format of every CSV and JSON artifact.

CSV cells are written at full double precision: a float is its shortest
round-trip ``repr``, an int its decimal digits, a string as given, and a
masked cell of a ``np.ma`` column is empty. Numeric numpy columns are
formatted by orjson's Ryū (Adams 2018), which gives the same digits and,
for finite |x| in [1e-4, 1e16) and zero, the same bytes as ``repr``; the
other cells (nan, ±inf, tiny and huge magnitudes) are written with
``repr``. JSON is indented by two spaces and ends with a newline. Both
are plain functions of their input, so reruns are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np


# rows converted and written per block, so a writer's memory does not
# grow with the artifact's length; each block's cells are held as Python
# strings until written, which keeps the block short
_BLOCK_ROWS = 1024

# Ryū and repr agree on finite doubles in [_RYU_LOW, _RYU_HIGH) and on
# zero; below it Ryū writes 0.0000771 for 7.71e-05, from it 1e16 for 1e+16
_RYU_LOW, _RYU_HIGH = 1e-4, 1e16


def _cells(block, orjson) -> list[str]:
    """One block of a column as cell strings."""
    masked = None
    if isinstance(block, np.ma.MaskedArray):
        masked = np.ma.getmaskarray(block)
        block = block.data
    # longdouble (itemsize 12 or 16) stays on str: tolist() keeps it a
    # numpy scalar, whose str carries more digits than a double's repr
    if (isinstance(block, np.ndarray) and block.dtype.kind in "iuf"
            and block.dtype.itemsize <= 8):
        # orjson prints float32 at float32 precision; tolist() widens it
        values = np.ascontiguousarray(
            block, dtype=np.float64 if block.dtype.kind == "f" else None)
        cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY
                             )[1:-1].decode().split(",")
        if values.dtype.kind == "f":
            size = np.abs(values)
            odd = ~((size >= _RYU_LOW) & (size < _RYU_HIGH)) & (values != 0)
            where = np.flatnonzero(odd)
            for i, x in zip(where.tolist(), values[where].tolist()):
                cells[i] = repr(x)
    else:
        # str of a Python float is its shortest round-trip repr
        values = block.tolist() if isinstance(block, np.ndarray) else block
        cells = list(map(str, values))
    if masked is not None:
        for i in np.flatnonzero(masked).tolist():
            cells[i] = ""
    return cells


def write_csv(path: str | Path, header: str, columns: Sequence) -> None:
    """Write equal-length columns under a comma-separated header line.

    A column is an array, a masked array or a list. Integer and float
    arrays of up to 64 bits are formatted through orjson; other arrays
    are converted with ``tolist()`` and lists are used as given, each cell
    written as its ``str``.
    """
    import orjson

    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [_cells(c[start:start + _BLOCK_ROWS], orjson) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
