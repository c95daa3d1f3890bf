"""The shared CSV/JSON artifact format."""

import json

import numpy as np
import pytest

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
