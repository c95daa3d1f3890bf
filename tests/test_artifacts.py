"""The shared CSV/JSON artifact format."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orbitq import artifacts
from orbitq.artifacts import write_csv, write_json


def test_csv_cells(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, "x,n,label,y", [
        np.array([0.1, 1 / 3, 1e-20]),
        np.array([3, -4, 2 ** 40], dtype=np.int64),
        ["a", "", "c"],
        np.array([np.nan, 2.0, 1e16]),
    ])
    assert path.read_text(encoding="utf-8") == (
        "x,n,label,y\n"
        "0.1,3,a,nan\n"
        "0.3333333333333333,-4,,2.0\n"
        "1e-20,1099511627776,c,1e+16\n"
    )


def test_csv_round_trips_across_row_blocks(tmp_path):
    rng = np.random.default_rng(5)
    n = 10_001  # several write blocks, the last one partial
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    index = np.arange(n)
    path = tmp_path / "f.csv"
    write_csv(path, "i,v", [index, values])
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "i,v" and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [int(i) for i, _ in rows] == index.tolist()
    assert np.array_equal([float(v) for _, v in rows], values)


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_csv(tmp_path / "r.csv", "a,b", [[1, 2], [1]])


def test_csv_mixed_list_column(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, "k,v", [[0, 1, "aggregate"], [0.5, 2.25, ""]])
    assert path.read_text(encoding="utf-8") == "k,v\n0,0.5\n1,2.25\naggregate,\n"


def test_csv_header_only(tmp_path):
    path = tmp_path / "e.csv"
    write_csv(path, "a,b", [np.array([]), []])
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_json_layout(tmp_path):
    path = tmp_path / "p.json"
    payload = {"b": 1, "a": [0.1, "x"], "c": {"d": None}}
    write_json(path, payload)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(payload, indent=2) + "\n"
    assert json.loads(text) == payload


# ---------------------------------------------------------------------------
# byte identity with the str-per-cell writer, and the writer's footprint

def reference_write_csv(path, header, columns):
    """The writer before orjson: each cell is str of a tolist() value.

    A masked array's masked cells are empty, as write_records_csv made
    them before masked columns reached write_csv.
    """
    def cells(column):
        if isinstance(column, np.ma.MaskedArray):
            column = np.where(np.ma.getmaskarray(column), "",
                              column.data.astype(object))
        values = column.tolist() if isinstance(column, np.ndarray) else column
        return map(str, values)

    n = len(columns[0]) if columns else 0
    assert all(len(c) == n for c in columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, n, 4096):
            block = [cells(c[start:start + 4096]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _ulps(x):
    with np.errstate(over="ignore"):
        return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# where Ryū's layout and repr's differ, or could
EDGE_FLOATS = [float(v) for x in (1e-4, 1e16, 5e-324, 2.2250738585072014e-308,
                                  1.7976931348623157e308, 0.0)
               for v in (*_ulps(x), *_ulps(-x))] + [math.nan, math.inf, -math.inf, -0.0]
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1) | st.sampled_from(
    [-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2 ** 63 - 2, 2 ** 63 - 1])
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
CELL_TEXT = st.text(st.characters(blacklist_characters=",\n\r",
                                  blacklist_categories=("Cs",)), max_size=4)
COLUMNS = {
    "float64": lambda n: st.lists(FLOATS, min_size=n, max_size=n).map(np.array),
    "float32": lambda n: st.lists(st.floats(width=32), min_size=n, max_size=n)
                           .map(lambda v: np.array(v, dtype=np.float32)),
    "float16": lambda n: st.lists(st.floats(width=16), min_size=n, max_size=n)
                           .map(lambda v: np.array(v, dtype=np.float16)),
    "longdouble": lambda n: st.lists(FLOATS, min_size=n, max_size=n)
                              .map(lambda v: np.array(v, dtype=np.longdouble)),
    "int64": lambda n: st.lists(INT64, min_size=n, max_size=n)
                         .map(lambda v: np.array(v, dtype=np.int64)),
    "int8": lambda n: st.lists(st.integers(-128, 127), min_size=n, max_size=n)
                        .map(lambda v: np.array(v, dtype=np.int8)),
    "uint64": lambda n: st.lists(st.integers(0, 2 ** 64 - 1), min_size=n, max_size=n)
                          .map(lambda v: np.array(v, dtype=np.uint64)),
    "bool": lambda n: st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    "masked": lambda n: st.tuples(st.lists(FLOATS, min_size=n, max_size=n),
                                  st.lists(st.booleans(), min_size=n, max_size=n))
                          .map(lambda d: np.ma.masked_array(d[0], mask=d[1])),
    "strided": lambda n: st.lists(FLOATS, min_size=2 * n, max_size=2 * n)
                           .map(lambda v: np.array(v)[::2]),
    "list": lambda n: st.lists(INT64 | FLOATS | CELL_TEXT, min_size=n, max_size=n),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(0, 40), block_rows=st.integers(1, 9),
       kinds=st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=5))
def test_csv_bytes_match_the_str_writer(tmp_path, data, n, block_rows, kinds):
    columns = [data.draw(COLUMNS[kind](n), label=kind) for kind in kinds]
    header = ",".join(kinds)
    with mock.patch.object(artifacts, "_BLOCK_ROWS", block_rows):
        write_csv(tmp_path / "new.csv", header, columns)
    reference_write_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _write_peak(path, column):
    tracemalloc.start()
    try:
        write_csv(path, "v", [column])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_memory_follows_the_block_not_the_file(tmp_path):
    rng = np.random.default_rng(3)
    # a 64-cell period makes every full block alike, whatever its power-of-two
    # length, so the longer file has no costlier block; 13 of the 64 cells
    # are below 1e-4 and go through repr
    period = rng.standard_normal(64) * 10.0 ** rng.integers(-6, 6, 64)
    values = np.tile(period, 200_000 // 64)
    write_csv(tmp_path / "w.csv", "v", [values[:1]])  # imports orjson untraced
    small = _write_peak(tmp_path / "s.csv", values[:50_000])
    large = _write_peak(tmp_path / "l.csv", values)
    assert large <= small
    assert large < 1_000_000
