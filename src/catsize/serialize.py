"""Deterministic JSON/CSV emission, written as a stream of text chunks.

Floats are written with 17 significant digits, which round-trips any IEEE
double exactly; payload bytes therefore depend only on the values, never
on locale, wall clock or dict-iteration quirks (insertion order is the
contract for key order).

The writers take exactly what the commands write.  ``json_chunks`` takes
None, an int, a float, a str, a ``SparseFloats`` or a dict with str keys
whose values are again such objects, each of exactly that type: a bool, a
numpy scalar, a list, a tuple or an ndarray raises TypeError.  A long list
that is +0.0 almost everywhere is a ``SparseFloats``, written from one
cached run of zeros without forming the list.  ``csv_chunks`` writes each
row through its caller's one-line %-template.  Both yield the text in
pieces of at most _FLOAT_BATCH values or rows each, so a writer never
holds a long payload at once; ``dumps_json`` joins the same pieces.
Neither writes inf or nan: the one "nan" or "inf" a command prints is the
max_err cell of a ``validate`` FAIL row, which that command formats.  A
JSON string is written only if it is printable ASCII without a quote or
backslash, as every key and label a command writes is; any other string
raises ValueError.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, islice, repeat

__all__ = ["SparseFloats", "fmt_float", "json_chunks", "dumps_json", "csv_chunks"]

# values per formatting batch, CSV rows per chunk and zeros per written run
_FLOAT_BATCH = 4096
# JSON text of _FLOAT_BATCH zeros; its first 3 k - 2 characters are k zeros
_ZERO_RUN = ", ".join(["0"] * _FLOAT_BATCH)


def _quote(text: str) -> str:
    """text as a JSON string literal, the bytes ``json.dumps(text)`` writes.

    Any text but printable ASCII without ``"`` or ``\\``, which JSON writes
    unescaped, raises ValueError.
    """
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    raise ValueError(f"cannot serialize string {text!r}")


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


def json_chunks(obj):
    """JSON text of obj, with 17-significant-digit floats, as a stream of chunks.

    obj is None, an int, a float, a str, a SparseFloats or a dict of such
    values, each of exactly that type; anything else raises TypeError.
    """
    kind = type(obj)
    if obj is None:
        yield "null"
    elif kind is int:
        yield str(obj)
    elif kind is float:
        yield fmt_float(obj)
    elif kind is str:
        yield _quote(obj)
    elif kind is dict:
        sep = "{"
        for k, v in obj.items():
            yield f"{sep}{_quote(str(k))}: "
            yield from json_chunks(v)
            sep = ", "
        yield "{}" if sep == "{" else "}"
    elif kind is SparseFloats:
        sep = "["
        for text in _sparse_items(obj):
            yield sep + text
            sep = ", "
        yield "[]" if sep == "[" else "]"
    else:
        raise TypeError(f"cannot serialize object of type {kind.__name__}")


def dumps_json(obj) -> str:
    """Serialize to a JSON string with 17-significant-digit floats."""
    return "".join(json_chunks(obj))


def csv_chunks(header: str, row: str, rows):
    """CSV text as a stream of chunks: the header line, then the rows in blocks.

    row is the %-template of one line, its newline included: three %.17g
    fields for a curve, "%s,%s,%s,%.17g" for validate.  Each row is a
    tuple with one value per field, and each block of rows is formatted in
    one pass.
    """
    yield header + "\n"
    rows = iter(rows)
    while block := list(islice(rows, _FLOAT_BATCH)):
        yield _format(row * len(block), tuple(chain.from_iterable(block)))
