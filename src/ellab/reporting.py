"""Deterministic report serialization.

All numeric output goes through a single canonical JSON emitter: dict keys
sorted, floats rendered with 17 significant digits, no locale or timestamp
dependence.  Identical payloads therefore serialize to byte-identical files,
which the golden-file regression tests rely on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
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
    """Plain CSV with the same float formatting as the JSON reports.

    Rows are formatted a block at a time with one repeated row format:
    "%.17g" for a float column, "%s" otherwise.
    """
    columns = [np.asarray(col) for col in columns]
    row = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns)
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK):
            block = [col[start:start + CSV_BLOCK].tolist() for col in columns]
            n = len(block[0])
            cells = [v for cell_row in zip(*block) for v in cell_row]
            fh.write(((row + "\n") * n) % tuple(cells))
