"""The payload writers pin the on-disk format of every CSV and JSON file:
a format change shows here, not only as a rerun mismatch."""
import json
import math

import numpy as np
import pytest

from sprinkled_nls.payload import write_csv, write_json


def test_write_csv_exact_text(tmp_path):
    path = tmp_path / "t.csv"
    floats = np.array([np.nan, -0.0, 5e-324, 1e308, 0.1, 1 / 3])
    write_csv(path, {"flag": [True, np.bool_(False), True, False, True, False],
                     "n": [3, np.int64(-4), 0, 7, np.int64(2**40), -1],
                     "x": floats})
    assert path.read_bytes() == (
        b"flag,n,x\n"
        b"1,3,nan\n"
        b"0,-4,-0\n"
        b"1,0,4.9406564584124654e-324\n"
        b"0,7,1e+308\n"
        b"1,1099511627776,0.10000000000000001\n"
        b"0,-1,0.33333333333333331\n")
    back = [float(line.split(",")[2])
            for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert math.isnan(back[0])
    assert math.copysign(1.0, back[1]) == -1.0
    assert np.array_equal(np.array(back[1:]), floats[1:])


def test_write_json_exact_text(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"n": np.int64(7), "b": np.bool_(True),
                      "a": np.arange(4.0).reshape(2, 2), "w": (-1.5, 2)})
    assert path.read_bytes() == (
        b'{\n  "a": [\n    [\n      0.0,\n      1.0\n    ],\n'
        b'    [\n      2.0,\n      3.0\n    ]\n  ],\n'
        b'  "b": true,\n  "n": 7,\n  "w": [\n    -1.5,\n    2\n  ]\n}\n')
    assert json.loads(path.read_text(encoding="utf-8"))["a"] == [[0.0, 1.0],
                                                                 [2.0, 3.0]]


def test_write_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(path, {"x": [1.0, 2.0], "y": [1.0]})
    assert not path.exists()
