"""The CSV writer behind `reporting.write_csv_tables`, loaded with numpy.

Rows go a block at a time: one kernel pass (`_format_floats`) formats every
distinct float64 column of the block, a cell it cannot prove exact keeps the
per-cell format, and each table's block is written as one byte string.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

# cells a CSV block formats at a time.  A cell takes about 200 bytes of
# transient arrays, and over 700 export ops the peak RSS grew 1.2 MB with
# 2048-cell blocks but 1.7 MB with 4096; a smaller block pays the kernel's
# fixed cost of some 80 numpy calls more often.
CSV_BLOCK_CELLS = 2048

# A formatted cell is a row of _SLOTS bytes with a fixed slot for every
# piece some "%.17g" layout needs: the sign, the "0.000" of -4 <= X < 0,
# the 17 digits with a candidate point after each, and the "e-XX" exponent.
# Slots the value does not use hold NUL bytes, which are deleted when the
# row is written; the last slot holds the CSV separator.
_SLOTS = 48
_D0, _EXP = 6, 42           # slots of the first digit, the exponent's digits
# layout key: sign, decimal exponent X and number of significant digits
_X_MIN, _X_MAX = -11, 16
_KEYS_X = _X_MAX - _X_MIN + 1


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two columns print the same: the same object, or float64
    columns of equal bits (-0.0 == 0.0, but they print "-0" and "0")."""
    return a is b or (a.dtype == b.dtype == np.float64 and a.shape == b.shape
                      and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def _extended_precision() -> bool:
    """Whether np.longdouble has the 64-bit mantissa the kernel needs."""
    return np.finfo(np.longdouble).nmant >= 63


def _kernel_tables():
    """Powers of ten, 4-digit groups with their trailing zeros, and the
    slots of every layout key."""
    pow10 = np.cumprod(np.full(28, np.longdouble(10))) / 10  # 10^0..10^27
    i = np.arange(10000)
    groups = np.full((10000, 8), 0xFF, np.uint8)
    trailing = np.zeros(10000, np.int64)
    for k, place in enumerate((1000, 100, 10, 1)):
        groups[:, 2 * k] = i // place % 10 + ord("0")
        trailing += i % (10000 // place) == 0
    # one row per key (neg, X, nsig) and one column per slot p: the slot's
    # literal byte, 0xFF where a digit is shown, or 0
    neg, X, nsig = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(2), np.arange(_X_MIN, _X_MAX + 1), np.arange(1, 18),
        indexing="ij"))
    p = np.arange(_SLOTS)
    fixed, exp = X >= 0, X < -4
    small = ~fixed & ~exp
    shown = np.where(fixed, np.maximum(nsig, X + 1), nsig)
    digit = (p >= _D0) & (p < _D0 + 34) & (p % 2 == 0)
    point = (p > _D0) & (p < _D0 + 34) & (p % 2 == 1)
    j = (p - _D0) // 2          # the digit at or before slot p
    used = ((p == 0) & (neg == 1)
            | (p >= 1) & (p < 3) & small
            | (p >= 3) & (p < _D0) & (p - 3 < -X - 1) & small
            | digit & (j < shown)
            | point & fixed & (j == X) & (nsig > X + 1)
            | point & exp & (j == 0) & (nsig > 1)
            | (p >= _EXP - 2) & (p < _EXP + 2) & exp)
    table = np.empty(used.shape, np.uint8)
    table[:] = np.frombuffer(b"-0.000" + b"0." * 17 + b"e-00" + b"\0" * 4,
                             np.uint8)
    table[:, _D0:_D0 + 34:2] = 0xFF
    table[:, _EXP:_EXP + 2] = np.hstack([-X // 10, -X % 10]) + ord("0")
    table *= used
    return pow10, groups.view(np.uint64).ravel(), trailing, table


_POW10, _GROUPS, _TRAILING, _TABLE = _kernel_tables()


def _format_floats(x: np.ndarray, cells: np.ndarray) -> None:
    """Write `format(v, ".17g")` of every value of the float64 array `x`
    into the (len(x), _SLOTS) byte array `cells`, padded with NULs.

    A cell that the kernel cannot prove exact (see `_significand`) keeps
    the per-cell format, and so do zero, non-finite x and |x| outside
    [1e-11, 1e17), and every cell where np.longdouble has no 64-bit
    mantissa.
    """
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1e17)
    if not _extended_precision():
        fast[:] = False
    # no log10 of 0, nan or inf
    X, D, exact = _significand(np.where(fast, a, 1.0), _POW10)
    fast &= exact
    d0, quads, nsig = _digits(D, _TRAILING)
    # the layout's slots: literals, 0xFF where a digit is shown, else NUL;
    # the keys are in range, and mode="clip" writes `out` with no temporary
    np.take(_TABLE, ((x < 0) * _KEYS_X + X - _X_MIN) * 17 + nsig - 1, axis=0,
            out=cells, mode="clip")
    cells[:, _D0] &= (d0 + ord("0")).astype(np.uint8)
    words = cells.view(np.uint64)
    for g, q in enumerate(quads, 1):
        words[:, g] &= np.take(_GROUPS, q)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow] = _text_cells(["%.17g" % v for v in x[slow].tolist()],
                                  _SLOTS)


def _significand(a: np.ndarray, pow10: np.ndarray):
    """Decimal exponent X, 17-digit significand D and whether D is exact,
    for each positive float64 a.

    With X = floor(log10 a), y = a 10^(16 - X) is formed in longdouble:
    10^k is exact there for k <= 27, so y is the exact product correctly
    rounded.  Every half-integer below 2^57 is a longdouble, so that
    rounding never carries y across one, and the nearest integer D of y is
    the correctly rounded significand unless y lies exactly on a
    half-integer.  D is exact when |y - D| < 0.5 and 1e16 < D < 1e17 (else
    X was off by one, or a rounds to a power of ten).
    """
    X = np.clip(np.floor(np.log10(a)), _X_MIN, _X_MAX).astype(np.intp)
    # y + 0.5 is exact, so its floor is D and its fraction y - D + 0.5
    t = a.astype(np.longdouble) * np.take(pow10, 16 - X) + 0.5
    D = t.astype(np.int64)
    tie = np.abs((t - D).astype(np.float64) - 0.5)
    return X, D, (D > 10**16) & (D < 10**17) & (tie < 0.5)


def _digits(D: np.ndarray, trailing: np.ndarray):
    """The first digit d0, the four 4-digit groups after it, and the number
    of significant digits (up to the last nonzero one) of each D."""
    # D = d0 10^16 + q1 10^12 + q2 10^8 + q3 10^4 + q4
    head = D // 10**8
    tail = D - head * 10**8
    d0 = head // 10**8
    head -= d0 * 10**8
    q1, q3 = head // 10**4, tail // 10**4
    quads = (q1, head - q1 * 10**4, q3, tail - q3 * 10**4)
    # trailing zeros: those of the last nonzero group, plus 4 for each zero
    # group after it
    zero8 = tail == 0
    lo = np.where(zero8, quads[1], quads[3])
    zero4 = lo == 0
    last = np.where(zero4, np.where(zero8, q1, q3), lo)
    return d0, quads, 17 - np.take(trailing, last) - 4 * zero4 - 8 * zero8


def _text_cells(strings, width: int) -> np.ndarray:
    """Each string as a row of `width` bytes, NUL-padded."""
    encoded = [s.encode() for s in strings]
    if b"\0" in b"".join(encoded):
        raise ValueError("a CSV cell holds a NUL character")
    return np.array(encoded, f"S{width}").view(np.uint8).reshape(-1, width)


def _byte_array(shape):
    """A zeroed bytearray and a uint8 array of `shape` over it, so that the
    array's bytes are translated without a copy."""
    buf = bytearray(math.prod(shape))
    return buf, np.frombuffer(buf, np.uint8).reshape(shape)


def _format_block(columns, width: int):
    """Cells (rows, len(columns), width) of a block of distinct columns, and
    the bytearray under them: the float64 columns in one kernel pass, any
    other column a cell at a time, "%.17g" for a float and str() otherwise."""
    rows = len(columns[0])
    buf, cells = _byte_array((rows, len(columns), width))
    floats = [j for j, col in enumerate(columns) if col.dtype == np.float64]
    x = np.stack([columns[j] for j in floats], axis=1).ravel() if floats else []
    if len(floats) == len(columns) and width == _SLOTS:
        _format_floats(x, cells.reshape(-1, _SLOTS))
    elif floats:
        kernel = np.empty((len(x), _SLOTS), np.uint8)
        _format_floats(x, kernel)
        cells[:, floats, :_SLOTS] = kernel.reshape(rows, len(floats), _SLOTS)
    for j, col in enumerate(columns):
        if j not in floats:
            fmt = "%.17g" if col.dtype.kind == "f" else "%s"
            cells[:, j] = _text_cells([fmt % v for v in col.tolist()], width)
    return buf, cells


def _cell_width(col: np.ndarray) -> int:
    """Bytes a cell of `col` and its separator can take."""
    if col.dtype.kind in "fiub":
        return _SLOTS
    return max([len(str(v).encode()) + 1 for v in col.tolist()], default=1)


def write_tables(tables) -> None:
    """The body of `reporting.write_csv_tables`."""
    distinct: list[np.ndarray] = []
    picks = []          # per table, the index in `distinct` of each column
    for _, _, columns in tables:
        pick = []
        for col in map(np.asarray, columns):
            j = next((j for j, seen in enumerate(distinct)
                      if _same_bits(col, seen)), len(distinct))
            if j == len(distinct):
                distinct.append(col)
            pick.append(j)
        picks.append(pick)
    lengths = {len(distinct[pick[0]]) for pick in picks}
    if len(lengths) != 1:
        raise ValueError(f"tables must have the same rows, got {sorted(lengths)}")
    rows = lengths.pop()
    width = max(map(_cell_width, distinct))
    block = max(1, CSV_BLOCK_CELLS // len(distinct))
    seps = [[ord(",")] * (len(pick) - 1) + [ord("\n")] for pick in picks]
    every = list(range(len(distinct)))  # a table of the columns in order
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb"))
                 for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, block):
            buf, cells = _format_block(
                [col[start:start + block] for col in distinct], width)
            for fh, pick, sep in zip(files, picks, seps):
                if pick == every:
                    text, line = buf, cells
                else:
                    text, line = _byte_array((len(cells), len(pick), width))
                    np.take(cells, pick, axis=1, out=line, mode="clip")
                line[:, :, -1] = sep
                fh.write(text.translate(None, b"\0"))
