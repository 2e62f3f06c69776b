"""Deterministic report serialization.

All numeric output goes through a single canonical JSON emitter: dict keys
sorted, floats rendered with 17 significant digits, no locale or timestamp
dependence.  Identical payloads therefore serialize to byte-identical files,
which the golden-file regression tests rely on.

The emitter needs no numpy: it looks for numpy values only once numpy is
loaded, as none exist before.  The CSV writer, in `_csvtables`, loads numpy.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import re
import sys
from typing import Any


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        # keep a trailing .0 so the value round-trips as a float
        return repr(float(x))
    return format(x, ".17g")


# the characters JSON requires escaped; most report strings hold none, and
# `sub` returns such a string unchanged
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')
_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\"}


def _escape_char(match: re.Match) -> str:
    ch = match.group()
    return _SHORT_ESCAPES.get(ch) or "\\u%04x" % ord(ch)


def _escape(s: str) -> str:
    return _NEEDS_ESCAPE.sub(_escape_char, s)


@functools.cache
def _emitter(np):
    """The recursive emitter; `np` is the numpy module, or None when numpy
    is not loaded and no value can be of a numpy type."""
    bools, ints, floats, arrays = (bool, int, float, ()) if np is None else (
        (bool, np.bool_), (int, np.integer), (float, np.floating), np.ndarray)

    def emit(obj: Any, parts: list[str], indent: int, pad: str) -> None:
        if obj is None:
            parts.append("null")
        elif isinstance(obj, bools):
            parts.append("true" if obj else "false")
        elif isinstance(obj, ints) and not isinstance(obj, bool):
            parts.append(str(int(obj)))
        elif isinstance(obj, floats):
            parts.append(_fmt_float(float(obj)))
        elif isinstance(obj, str):
            parts.append('"%s"' % _escape(obj))
        elif isinstance(obj, arrays):
            emit(obj.tolist(), parts, indent, pad)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            emit(dataclasses.asdict(obj), parts, indent, pad)
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
                emit(by_key[k], parts, indent + 1, pad)
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
                emit(v, parts, indent + 1, pad)
                if i < len(seq) - 1:
                    parts.append(",")
            parts.append("\n" + pad * indent + "]")
        else:
            raise TypeError(f"cannot serialize {type(obj)!r}")

    return emit


def dumps(obj: Any) -> str:
    """Canonical JSON string (sorted keys, 17 significant digits)."""
    parts: list[str] = []
    _emitter(sys.modules.get("numpy"))(obj, parts, 0, "  ")
    parts.append("\n")
    return "".join(parts)


def dump(obj: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def config_hash(config: Any) -> str:
    """Content hash of a run configuration, embedded in reports for provenance."""
    return hashlib.sha256(dumps(config).encode("utf-8")).hexdigest()


def write_csv(path, header: list[str], columns: list) -> None:
    """Plain CSV with the same float formatting as the JSON reports: the
    one-table case of `write_csv_tables`."""
    write_csv_tables([(path, header, columns)])


def write_csv_tables(tables) -> None:
    """Write CSV tables over the same rows in one pass.

    `tables` holds (path, header, columns) triples.  Every cell reads as
    `format(v, ".17g")` for a float and `str(v)` otherwise.  Columns are
    deduplicated across tables by their bits, so a column used more than
    once is formatted once.
    """
    from . import _csvtables

    _csvtables.write_tables(tables)
