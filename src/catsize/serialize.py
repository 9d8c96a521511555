"""Deterministic JSON/CSV emission, written as a stream of text chunks.

Floats are written with 17 significant digits, which round-trips any IEEE
double exactly; payload bytes therefore depend only on the values, never
on locale, wall clock or dict-iteration quirks (insertion order is the
contract for key order).

``json_chunks`` and ``csv_chunks`` yield the text in pieces of at most
_FLOAT_BATCH values each, so a writer never holds a long payload at once;
``dumps_json`` joins the same pieces.  A long list that is +0.0 almost
everywhere is a ``SparseFloats``, written from one cached run of zeros
without forming the list.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from itertools import chain, islice, repeat
from numbers import Integral, Real

__all__ = ["SparseFloats", "fmt_float", "json_chunks", "dumps_json", "csv_chunks"]

# values per formatting batch, CSV rows per chunk and zeros per written run
_FLOAT_BATCH = 4096
# JSON text of _FLOAT_BATCH zeros; its first 3 k - 2 characters are k zeros
_ZERO_RUN = ", ".join(["0"] * _FLOAT_BATCH)


def _format(template: str, values: tuple) -> str:
    """template % values, with every number in a %.17g field.

    The one place floats are formatted.  Raises ValueError on inf or nan,
    which have no JSON token and which no CSV reader of this output expects.
    %.17g writes them as "inf" and "nan", and no template here holds an
    "n", so the values are scanned only when the text does.
    """
    text = template % values
    if "n" in text:
        for v in values:
            if not isinstance(v, str) and not math.isfinite(v):
                raise ValueError(f"cannot serialize non-finite value {float(v)!r}")
    return text


def fmt_float(x) -> str:
    """Shortest-of-17-significant-digits decimal form of a finite double.

    Raises ValueError on inf or nan.
    """
    return _format("%.17g", (float(x),))


def _float_items(values) -> str:
    # the JSON list items of a batch of floats, ", "-separated
    return _format(", ".join(["%.17g"] * len(values)), tuple(values))


class SparseFloats:
    """``length`` floats, +0.0 except at the sorted ``indices``, read by iteration.

    Needs no numpy and takes memory for the stored values only, whatever
    its length.  The stored values must be finite, so a payload that would
    hold inf or nan is refused when it is built, before any of it is
    written.
    """

    def __init__(self, length: int, indices, values) -> None:
        self.indices, self.values = tuple(map(operator.index, indices)), tuple(map(float, values))
        idx = (-1, *self.indices, length)
        if len(self.indices) != len(self.values) or not all(map(operator.lt, idx, idx[1:])):
            raise ValueError(f"need one value per index, indices increasing within [0, {length})")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"cannot serialize non-finite value {v!r}")
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        pos = 0
        for k, v in zip(self.indices, self.values):
            yield from repeat(0.0, k - pos)
            yield v
            pos = k + 1
        yield from repeat(0.0, self._length - pos)


def _zero_items(count: int):
    full, rest = divmod(count, _FLOAT_BATCH)
    yield from repeat(_ZERO_RUN, full)
    if rest:
        yield _ZERO_RUN[: 3 * rest - 2]


def _sparse_items(seq: SparseFloats):
    # runs of zeros from the cached text, and each run of consecutive stored
    # indices formatted _FLOAT_BATCH values at a time
    idx, vals = seq.indices, seq.values
    pos = i = 0
    while i < len(idx):
        yield from _zero_items(idx[i] - pos)
        j = i + 1
        while j < len(idx) and j - i < _FLOAT_BATCH and idx[j] == idx[j - 1] + 1:
            j += 1
        yield _float_items(vals[i:j])
        pos, i = idx[j - 1] + 1, j
    yield from _zero_items(len(seq) - pos)


def _list_chunks(items):
    # items: non-empty texts of consecutive list entries
    sep = "["
    for text in items:
        yield sep + text
        sep = ", "
    yield "[]" if sep == "[" else "]"


def _is_ndarray(obj) -> bool:
    # an ndarray exists only once numpy is loaded, so none is imported here
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray)


def _scalar_json(obj) -> str | None:
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
    return None


def json_chunks(obj):
    """JSON text of obj, with 17-significant-digit floats, as a stream of chunks."""
    text = _scalar_json(obj)
    if text is not None:
        yield text
    elif isinstance(obj, dict):
        sep = "{"
        for k, v in obj.items():
            yield f"{sep}{json.dumps(str(k))}: "
            yield from json_chunks(v)
            sep = ", "
        yield "{}" if sep == "{" else "}"
    elif isinstance(obj, SparseFloats):
        yield from _list_chunks(_sparse_items(obj))
    elif isinstance(obj, (list, tuple)) or _is_ndarray(obj):
        batches = (obj[i : i + _FLOAT_BATCH] for i in range(0, len(obj), _FLOAT_BATCH))
        yield from _list_chunks(", ".join(map(dumps_json, batch)) for batch in batches)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Serialize to a JSON string with 17-significant-digit floats."""
    return "".join(json_chunks(obj))


def csv_chunks(header: str, rows):
    """CSV text as a stream of chunks: the header line, then the rows in blocks.

    Strings are written as they are, numbers in the fmt_float form.  A
    block of rows that are all floats, of one width, is formatted in one
    pass.
    """
    yield header + "\n"
    rows = iter(rows)
    while block := list(islice(rows, _FLOAT_BATCH)):
        cells = tuple(chain.from_iterable(block))
        width = len(block[0])
        if set(map(type, cells)) == {float} and set(map(len, block)) == {width}:
            template = (",".join(["%.17g"] * width) + "\n") * len(block)
        else:
            template = "".join(
                ",".join(["%s" if isinstance(v, str) else "%.17g" for v in row]) + "\n"
                for row in block
            )
        yield _format(template, cells)
