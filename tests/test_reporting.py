"""Canonical serialization and config hashing."""

import json
import math

import numpy as np
import pytest

from ellab import _csvtables, cli, reporting
from ellab import modelspace as ms
from ellab import pdelab as pde


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


def test_dumps_prints_numpy_values_as_their_python_equals():
    # the emitter takes numpy's types once per call, from the loaded module
    nan, inf = math.nan, math.inf
    cases = [
        (np.float64(0.1), 0.1), (np.float64(-0.0), -0.0),
        (np.float64(nan), nan), (np.float64(-inf), -inf),
        (np.float32(0.1), float(np.float32(0.1))), (np.float32(-0.0), -0.0),
        (np.float32(inf), inf), (np.float32(nan), nan),
        (np.int64(-2**62), -2**62), (np.int64(0), 0),
        (np.bool_(True), True), (np.bool_(False), False),
        (np.array(-0.0), -0.0), (np.array(7), 7), (np.array(nan), nan),
        (np.array([[1.0, -0.0, nan], [inf, -inf, 2.5]]),
         [[1.0, -0.0, nan], [inf, -inf, 2.5]]),
        (np.array([[True], [False]]), [[True], [False]]),
    ]
    for value, plain in cases:
        assert reporting.dumps({"v": value}) == reporting.dumps({"v": plain}), value
    assert reporting.dumps([v for v, _ in cases]) == reporting.dumps(
        [p for _, p in cases])
    assert reporting.dumps(np.float32(-0.0)) == "-0.0\n"


def test_dumps_rejects_unknown_types():
    for value in (object(), {1}, 1j, np.complex128(1j), np.datetime64(0, "s")):
        with pytest.raises(TypeError):
            reporting.dumps({"x": value})


def per_char_escape(s):
    """The escaper's reference: each character on its own, `"` and `\\`
    backslashed and control characters as \\u escapes."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


ESCAPE_CASES = ["", "worst_margin", '"', "\\", "\n", "\t", "\x00", "\x1f",
                "\x7f", "é", "∞", 'a"b\\c', '\\"', "x\ny\tz", "\x00\x1f\x7f",
                'é"∞\\\n', "plain ∞ text\x1f"]


def test_escape_matches_the_per_char_reference():
    for s in ESCAPE_CASES:
        expected = per_char_escape(s)
        assert reporting._escape(s) == expected
        assert reporting.dumps({s: s}) == '{\n  "%s": "%s"\n}\n' % (expected,
                                                                     expected)
        assert reporting.dumps([s]) == '[\n  "%s"\n]\n' % expected


def test_dumps_round_trips_escaped_strings():
    obj = {s: [s, {s + "k": s}] for s in ESCAPE_CASES}
    assert json.loads(reporting.dumps(obj)) == obj


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
    rows = 3 * _csvtables.CSV_BLOCK_CELLS // 4 + 3  # full blocks and a partial one
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


# the tables below hold 9 distinct columns, so a block has
# CSV_BLOCK_CELLS // 9 rows
BLOCK_ROWS = _csvtables.CSV_BLOCK_CELLS // 9


@pytest.mark.parametrize("rows", [255, 256, 257, 1027, BLOCK_ROWS - 1,
                                  BLOCK_ROWS, BLOCK_ROWS + 1,
                                  4 * BLOCK_ROWS + 3])
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


def test_write_csv_formats_other_columns_cell_by_cell(tmp_path):
    # columns the kernel does not take: float32, complex and str objects,
    # one longer than a float cell
    cols = [np.array([1.5, 0.1, -0.0], np.float32),
            np.array([1 + 2j, 0j, -3j]),
            np.array(["x" * 60, "é", "a b"], dtype=object),
            np.array([0.1, 1e300, 2.5])]
    path = tmp_path / "t.csv"
    reporting.write_csv(path, ["f32", "c", "s", "x"], cols)
    assert path.read_text(encoding="utf-8") == per_cell_csv(
        ["f32", "c", "s", "x"], cols)


def test_write_csv_refuses_a_nul_in_a_cell(tmp_path):
    # NUL pads the formatted cells, so a cell may not hold one
    with pytest.raises(ValueError):
        reporting.write_csv(tmp_path / "t.csv", ["s"],
                            [np.array(["a\0b"], dtype=object)])


def test_write_csv_tables_refuse_unequal_rows(tmp_path):
    with pytest.raises(ValueError):
        reporting.write_csv_tables([(tmp_path / "a.csv", ["x"], [np.zeros(3)]),
                                    (tmp_path / "b.csv", ["x"], [np.zeros(4)])])


def kernel_text(values):
    """What the vectorized kernel prints for each value."""
    values = np.asarray(values, dtype=np.float64)
    cells = np.empty((len(values), _csvtables._SLOTS), np.uint8)
    _csvtables._format_floats(values, cells)
    cells[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode().splitlines()


def exactness_battery():
    """Values that stress each step of the kernel's exactness argument."""
    rng = np.random.default_rng(1414)
    tens = 10.0 ** np.arange(-20, 25)
    edges = np.array([1e16, 1e17, 1e-11, 2.0**53, 2.0**63, 1e22, 5e-324,
                      2.2250738585072014e-308, 1e308])
    near = [np.nextafter(v, towards) for v in (tens, edges)
            for towards in (0.0, np.inf)]
    twice = [np.nextafter(v, towards) for v in near[2:] for towards in (0.0, np.inf)]
    largest = np.finfo(np.float64).max
    return np.concatenate([
        np.arange(-30000, 30001, 3) * 2.0**-25,       # ties of k 2^-25
        rng.integers(-2**53, 2**53, 20000) * 2.0**-25,
        tens, edges, *near, *twice, [largest, np.nextafter(largest, 0.0)],
        1e16 + np.arange(-64, 65) * 2.0, 1e17 + np.arange(-64, 65) * 16.0,
        rng.integers(0, 2**52, 2000).view(np.float64),  # subnormals
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf],
        rng.integers(-2**62, 2**62, 5000).astype(np.float64),
        rng.integers(0, 2**64, 100000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(50000) * 10.0 ** rng.uniform(-12, 18, 50000),
    ])


def test_kernel_matches_format_on_the_exactness_battery():
    values = exactness_battery()
    values = np.concatenate([values, -values[:100000]])
    assert kernel_text(values) == [format(v, ".17g") for v in values.tolist()]


def test_kernel_prints_the_tenth_powers_neighbours():
    # 1e-07 lies just below 10^-7, so its exponent is -8: a kernel that
    # checks the range after rounding prints "1e-07"
    assert kernel_text([1e-07, 1e16, 1e17, 0.1, 1.0]) == [
        "9.9999999999999995e-08", "10000000000000000", "1e+17",
        "0.10000000000000001", "1"]


def test_kernel_formats_most_cells_itself(monkeypatch):
    # the per-cell fallback takes only the cells the kernel cannot prove
    # exact: significands on a half-integer, about 1 in 400 here
    counted = []
    text_cells = _csvtables._text_cells
    monkeypatch.setattr(_csvtables, "_text_cells",
                        lambda strings, width: counted.append(len(strings))
                        or text_cells(strings, width))
    values = np.random.default_rng(7).standard_normal(20000)
    assert kernel_text(values) == [format(v, ".17g") for v in values.tolist()]
    assert sum(counted) < 0.005 * len(values)


def test_write_csv_matches_format_on_the_battery(tmp_path):
    values = exactness_battery()[::8]
    big = np.array([-2**63, 2**63 - 1, 0, 10**18, -(10**17)], dtype=np.int64)
    cols = [values, np.resize(big, len(values)),
            np.arange(len(values)) % 5 == 0, -values]
    path = tmp_path / "battery.csv"
    reporting.write_csv(path, ["x", "i", "flag", "minus_x"], cols)
    assert path.read_text() == per_cell_csv(["x", "i", "flag", "minus_x"], cols)


def export_cases():
    asp = ms.appendix_space(5.0, 2.0, 1.0)
    bv = float(ms.appendix_solution(asp, np.array([1.0]))[0][0])
    return [("flat:4", 1.0, 0.5), ("appendix:5,2,1", 0.5, bv)]


@pytest.mark.parametrize("extended", [True, False])
@pytest.mark.parametrize("space, R, bv", export_cases())
def test_solve_export_matches_the_per_cell_format(tmp_path, monkeypatch,
                                                  space, R, bv, extended):
    # the export op at m = 4096 on both spaces; without an extended-precision
    # longdouble every cell takes the per-cell format, with the same bytes
    if not extended:
        monkeypatch.setattr(_csvtables, "_extended_precision", lambda: False)
    out = tmp_path / "profile.csv"
    assert cli.main(["solve", "--f", "power:2", "--space", space, "--R", repr(R),
                     "--bv", repr(bv), "--grid", "4096", "--emit-plot-data",
                     "--out", str(out)]) == 0
    prof = pde.solve_radial_bvp(cli.parse_space(space),
                                cli.parse_nonlinearity("power:2"), R, bv,
                                pde.SolverConfig(m=4096))
    header, cols = pde.profile_table(prof)
    assert out.read_text() == per_cell_csv(header, cols)
    plot = [cols[header.index("r")], cols[header.index("Q")]]
    assert out.with_suffix(".plot.csv").read_text() == per_cell_csv(
        ["r", "diag"], plot)

