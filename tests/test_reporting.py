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


def per_cell_csv(header, cols):
    """The writers' reference: each cell formatted on its own,
    format(v, ".17g") for a float and str(v) otherwise."""
    lines = [",".join(header)]
    for i in range(len(cols[0])):
        lines.append(",".join(
            format(float(col[i]), ".17g") if isinstance(col[i], np.floating)
            else str(col[i]) for col in cols))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_the_per_cell_format(tmp_path):
    # the block writer must give the bytes of formatting cell by cell
    rows = 4 * reporting.CSV_BLOCK + 3  # full blocks and a partial one
    floats = np.resize([1.0, -0.0, np.nan, np.inf, -np.inf, 1e300, 0.1, 1 / 3],
                       rows)
    cols = [np.arange(rows), floats, np.arange(rows) % 3 == 0,
            np.linspace(-1.0, 1.0, rows)]
    path = tmp_path / "t.csv"
    reporting.write_csv(path, ["i", "x", "flag", "y"], cols)
    expected = per_cell_csv(["i", "x", "flag", "y"], cols)
    assert path.read_text() == expected
    lines = expected.splitlines()
    assert [line.split(",")[1] for line in lines[1:7]] == [
        "1", "-0", "nan", "inf", "-inf", "1.0000000000000001e+300"]
    assert lines[1].split(",")[2] == "True"


@pytest.mark.parametrize("rows", [reporting.CSV_BLOCK - 1, reporting.CSV_BLOCK,
                                  reporting.CSV_BLOCK + 1,
                                  4 * reporting.CSV_BLOCK + 3])
def test_write_csv_tables_match_the_per_cell_format(tmp_path, rows):
    # r is shared as one object, q as one object and as an equal copy;
    # zero and negzero differ only in the sign of their zeros, so they
    # must not be merged: -0.0 == 0.0, but they print "-0" and "0"
    r = np.linspace(0.0, 2.0, rows)
    q = np.resize([0.1, np.nan, np.inf, -np.inf, 1 / 3, 1e300, 2.0], rows)
    zero = np.resize([0.0, 2.5], rows)
    negzero = np.where(zero == 0.0, -0.0, zero)
    nan, inf = np.full(rows, np.nan), np.full(rows, np.inf)
    ints = np.arange(rows)
    tables = [
        (tmp_path / "a.csv", ["r", "q", "zero", "i", "q2", "nan", "flag"],
         [r, q, zero, ints, q.copy(), nan, ints % 3 == 0]),
        (tmp_path / "b.csv", ["r", "diag", "negzero", "inf", "nan"],
         [r, q, negzero, inf, nan.copy()]),
        (tmp_path / "c.csv", ["negzero", "inf", "i", "y"],
         [negzero, -(-inf), ints, np.linspace(-1.0, 1.0, rows)]),
    ]
    reporting.write_csv_tables(tables)
    for path, header, cols in tables:
        assert path.read_text() == per_cell_csv(header, cols)
    assert (tmp_path / "b.csv").read_text().splitlines()[1].split(",")[2] == "-0"
    assert (tmp_path / "a.csv").read_text().splitlines()[1].split(",")[2] == "0"


def test_write_csv_tables_refuse_unequal_rows(tmp_path):
    with pytest.raises(ValueError):
        reporting.write_csv_tables([(tmp_path / "a.csv", ["x"], [np.zeros(3)]),
                                    (tmp_path / "b.csv", ["x"], [np.zeros(4)])])
