"""Deterministic report serialization.

All numeric output goes through a single canonical JSON emitter: dict keys
sorted, floats rendered with 17 significant digits, no locale or timestamp
dependence.  Identical payloads therefore serialize to byte-identical files,
which the golden-file regression tests rely on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
from collections import Counter
from itertools import chain
from typing import Any

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        # keep a trailing .0 so the value round-trips as a float
        return repr(float(x))
    return format(x, ".17g")


def _escape(s: str) -> str:
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


def _emit(obj: Any, parts: list[str], indent: int, pad: str) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        parts.append('"%s"' % _escape(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts, indent, pad)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _emit(dataclasses.asdict(obj), parts, indent, pad)
    elif isinstance(obj, dict):
        keys = sorted(str(k) for k in obj)
        if not keys:
            parts.append("{}")
            return
        nl = "\n" + pad * (indent + 1)
        parts.append("{")
        by_key = {str(k): v for k, v in obj.items()}
        for i, k in enumerate(keys):
            parts.append(nl)
            parts.append('"%s": ' % _escape(k))
            _emit(by_key[k], parts, indent + 1, pad)
            if i < len(keys) - 1:
                parts.append(",")
        parts.append("\n" + pad * indent + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        nl = "\n" + pad * (indent + 1)
        parts.append("[")
        for i, v in enumerate(seq):
            parts.append(nl)
            _emit(v, parts, indent + 1, pad)
            if i < len(seq) - 1:
                parts.append(",")
        parts.append("\n" + pad * indent + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj: Any) -> str:
    """Canonical JSON string (sorted keys, 17 significant digits)."""
    parts: list[str] = []
    _emit(obj, parts, 0, "  ")
    parts.append("\n")
    return "".join(parts)


def dump(obj: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def config_hash(config: Any) -> str:
    """Content hash of a run configuration, embedded in reports for provenance."""
    return hashlib.sha256(dumps(config).encode("utf-8")).hexdigest()


# rows converted to Python values at a time: larger blocks write no faster,
# and a block of 4096 six-column rows holds about 3 MB of Python objects
CSV_BLOCK = 256


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Plain CSV with the same float formatting as the JSON reports: the
    one-table case of `write_csv_tables`."""
    write_csv_tables([(path, header, columns)])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two columns print the same: the same object, or float64
    columns of equal bits (-0.0 == 0.0, but they print "-0" and "0")."""
    return a is b or (a.dtype == b.dtype == np.float64 and a.shape == b.shape
                      and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def write_csv_tables(tables) -> None:
    """Write CSV tables over the same rows in one pass.

    `tables` holds (path, header, columns) triples.  Rows are formatted a
    block at a time with one repeated row format per table: "%.17g" for a
    float column, "%s" otherwise.  A float column used more than once, in
    one table or across tables, is formatted once per block with "%.17g",
    and its strings are reused through "%s".
    """
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
    uses = Counter(chain.from_iterable(picks))
    floats = [col.dtype.kind == "f" for col in distinct]
    shared = [j for j, is_float in enumerate(floats) if is_float and uses[j] > 1]
    formats = [",".join("%.17g" if floats[j] and uses[j] == 1 else "%s"
                        for j in pick) + "\n" for pick in picks]
    lengths = {len(distinct[pick[0]]) for pick in picks}
    if len(lengths) != 1:
        raise ValueError(f"tables must have the same rows, got {sorted(lengths)}")
    rows = lengths.pop()
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8"))
                 for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK):
            block = [col[start:start + CSV_BLOCK].tolist() for col in distinct]
            n = len(block[0])
            for j in shared:
                block[j] = (",".join(("%.17g",) * n) % tuple(block[j])).split(",")
            for fh, fmt, pick in zip(files, formats, picks):
                cells = chain.from_iterable(zip(*(block[j] for j in pick)))
                fh.write((fmt * n) % tuple(cells))
