"""Canonical serialization and config hashing."""

import math

import numpy as np
import pytest

from ellab import reporting


def test_dumps_is_deterministic_and_sorted():
    a = reporting.dumps({"b": 1, "a": [1.5, 2], "c": {"y": True, "x": None}})
    b = reporting.dumps({"c": {"x": None, "y": True}, "a": [1.5, 2], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_dumps_float_digits():
    text = reporting.dumps({"v": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_dumps_handles_numpy_and_special_values():
    text = reporting.dumps({
        "arr": np.array([1.0, 2.0]),
        "flag": np.bool_(True),
        "n": np.int64(3),
        "x": np.float64(0.1),
        "inf": math.inf,
        "whole": 4.0,
    })
    assert '"inf"' in text
    assert "4.0" in text
    round_trip = reporting.dumps({"x": float("0.10000000000000001")})
    assert "0.1" in round_trip


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        reporting.dumps({"x": object()})


def test_config_hash_sensitivity():
    h1 = reporting.config_hash({"f": "power:2", "N": 5})
    h2 = reporting.config_hash({"f": "power:2", "N": 4})
    assert h1 != h2
    assert h1 == reporting.config_hash({"N": 5, "f": "power:2"})


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    reporting.write_csv(path, ["a", "b"], [np.array([1.0, 2.0]),
                                           np.array([0.5, 0.25])])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"


def test_write_csv_matches_the_per_cell_format(tmp_path):
    # the block writer must give the bytes of formatting cell by cell:
    # format(v, ".17g") for a float, str(v) otherwise
    rows = 4 * reporting.CSV_BLOCK + 3  # full blocks and a partial one
    floats = np.resize([1.0, -0.0, np.nan, np.inf, -np.inf, 1e300, 0.1, 1 / 3],
                       rows)
    cols = [np.arange(rows), floats, np.arange(rows) % 3 == 0,
            np.linspace(-1.0, 1.0, rows)]
    path = tmp_path / "t.csv"
    reporting.write_csv(path, ["i", "x", "flag", "y"], cols)
    expected = ["i,x,flag,y"]
    for i in range(rows):
        expected.append(",".join(
            format(float(col[i]), ".17g") if isinstance(col[i], np.floating)
            else str(col[i]) for col in cols))
    assert path.read_text() == "\n".join(expected) + "\n"
    assert [line.split(",")[1] for line in expected[1:7]] == [
        "1", "-0", "nan", "inf", "-inf", "1.0000000000000001e+300"]
    assert expected[1].split(",")[2] == "True"
