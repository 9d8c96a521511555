"""Deterministic JSON/CSV emission.

Floats are written with 17 significant digits, which round-trips any IEEE
double exactly; payload bytes therefore depend only on the values, never
on locale, wall clock or dict-iteration quirks (insertion order is the
contract for key order).
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["fmt_float", "dumps_json", "csv_text"]

_FLOAT_BATCH = 4096


def fmt_float(x: float) -> str:
    """Shortest-of-17-significant-digits decimal form of a finite double.

    Raises ValueError on inf or nan, which have no JSON token and which no
    CSV reader of this output expects.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, list) and set(map(type, obj)) == {float}:
        # Python floats are formatted _FLOAT_BATCH to a call, with no Python
        # call per value and small temporaries; %.17g is the fmt_float form.
        # It writes inf and nan as "inf"/"nan", so an "n" anywhere marks a
        # non-finite entry, which the per-value loop below refuses
        batches = (obj[i : i + _FLOAT_BATCH] for i in range(0, len(obj), _FLOAT_BATCH))
        text = ", ".join(", ".join(["%.17g"] * len(b)) % tuple(b) for b in batches)
        if "n" not in text:
            return "[" + text + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Serialize to a JSON string with 17-significant-digit floats."""
    return _encode(obj)


def csv_text(header: str, rows) -> str:
    """CSV text: the header line, then one line per row; strings as-is, numbers as fmt_float."""
    lines = [",".join(v if isinstance(v, str) else fmt_float(v) for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"
