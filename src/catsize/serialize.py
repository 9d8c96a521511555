"""Deterministic JSON/CSV emission.

Floats are written with 17 significant digits, which round-trips any IEEE
double exactly; payload bytes therefore depend only on the values, never
on locale, wall clock or dict-iteration quirks (insertion order is the
contract for key order).
"""

from __future__ import annotations

import functools
import json
import marshal
import math
import sys
from numbers import Integral, Real

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


@functools.lru_cache(maxsize=4)
def _zero_run(size: int) -> tuple[bytes, str]:
    # marshal image and JSON text of [0.0] * size: a full batch and the
    # last, shorter batch of a list or two
    return marshal.dumps([0.0] * size, 2), ", ".join(["0"] * size)


def _is_zero_batch(batch: list) -> bool:
    # every entry the Python float +0.0.  list.count(0.0) cannot tell: -0.0,
    # 0 and False compare equal to 0.0 but print differently.  The marshal
    # image of the batch holds each float's 8 bytes and tags ints and bools
    # by type, so it equals that of [0.0] * len(batch) only for +0.0 floats
    if type(batch[0]) is not float or batch[0] != 0.0:
        return False
    try:
        image = marshal.dumps(batch, 2)
    except ValueError:  # e.g. a numpy scalar, which marshal cannot write
        return False
    return image == _zero_run(len(batch))[0]


def _float_list_json(values: list) -> str | None:
    """JSON text of a list of Python floats, each in the fmt_float form.

    Returns None for any other list, and for non-finite entries, which the
    per-value path refuses with fmt_float's error.  Values go _FLOAT_BATCH
    to one %.17g call (the fmt_float form), with no Python call per value
    and small temporaries; a batch of +0.0 is one cached string, so a long
    run of zeros costs a C-level scan instead of formatting.  One join
    builds the text, so it is copied once.
    """
    parts = ["["]
    for i in range(0, len(values), _FLOAT_BATCH):
        batch = values[i : i + _FLOAT_BATCH]
        if i:
            parts.append(", ")
        if _is_zero_batch(batch):
            parts.append(_zero_run(len(batch))[1])
            continue
        if set(map(type, batch)) != {float}:
            return None
        text = ", ".join(["%.17g"] * len(batch)) % tuple(batch)
        # %.17g writes inf and nan as "inf"/"nan"
        if "n" in text:
            return None
        parts.append(text)
    parts.append("]")
    return "".join(parts)


def _is_ndarray(obj) -> bool:
    # an ndarray exists only once numpy is loaded, so none is imported here
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray)


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, Integral):  # numpy registers its integer types here
        return str(int(obj))
    if isinstance(obj, Real):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        # one join over all pieces, so that a long value is copied once
        pieces = ["{"]
        for k, v in obj.items():
            if len(pieces) > 1:
                pieces.append(", ")
            pieces += [json.dumps(str(k)), ": ", _encode(v)]
        pieces.append("}")
        return "".join(pieces)
    if isinstance(obj, list):
        text = _float_list_json(obj)
        if text is not None:
            return text
    if isinstance(obj, (list, tuple)) or _is_ndarray(obj):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Serialize to a JSON string with 17-significant-digit floats."""
    return _encode(obj)


def csv_text(header: str, rows) -> str:
    """CSV text: the header line, then one line per row; strings as-is, numbers as fmt_float."""
    lines = [",".join(v if isinstance(v, str) else fmt_float(v) for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"
