import json
import math

import numpy as np
import pytest

from catsize.serialize import (
    _FLOAT_BATCH,
    SparseFloats,
    csv_chunks,
    dumps_json,
    fmt_float,
    json_chunks,
)


FLOAT_ROW = "%.17g,%.17g,%.17g\n"
VALIDATE_ROW = "%s,%s,%.17g,%.17g\n"


def test_finite_values_round_trip():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(5e-324)) == 5e-324
    obj = {"a": 1.5, "b": None, "c": {"d": 2.0, "e": 10**20, "f": "x"}}
    text = '{"a": 1.5, "b": null, "c": {"d": 2, "e": 100000000000000000000, "f": "x"}}'
    assert dumps_json(obj) == text
    assert "".join(csv_chunks("s,n,e,t", VALIDATE_ROW, [("PASS", "x", 0.25, 1e-9)])) == (
        "s,n,e,t\nPASS,x,0.25,1.0000000000000001e-09\n"
    )


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(np.inf)])
def test_non_finite_values_are_refused(bad):
    # inf and nan have no JSON token; the CLI maps this ValueError to exit 2.
    # A payload holds Python floats (a numpy scalar is refused by its type,
    # below); a CSV field formats any real number
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json({"q": {"v": float(bad)}})
    with pytest.raises(ValueError, match="non-finite"):
        "".join(csv_chunks("x,y,z", FLOAT_ROW, [(0.0, 1.0, 2.0), (1.0, bad, 2.0)]))


def test_float_lists_match_the_per_value_form():
    # the bytes of a float list equal fmt_float per value
    values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e17, 2.0**70, -1e-300]
    dense = SparseFloats(len(values), range(len(values)), values)
    assert dumps_json(dense) == "[" + ", ".join(fmt_float(v) for v in values) + "]"
    assert dumps_json({"q": SparseFloats(0, [], [])}) == '{"q": []}'


@pytest.mark.parametrize(
    "value",
    [True, np.float64(0.5), np.int64(3), [0.5], (0.5,), np.array([0.5])],
    ids=["bool", "np.float64", "np.int64", "list", "tuple", "ndarray"],
)
def test_json_refuses_types_no_command_writes(value):
    # the writer dispatches on the exact type, so a subclass of int or float
    # and a sequence are refused, at the top and inside a dict
    with pytest.raises(TypeError, match="cannot serialize object of type"):
        list(json_chunks(value))
    with pytest.raises(TypeError, match="cannot serialize object of type"):
        list(json_chunks({"v": value}))


def _per_value(values):
    return "[" + ", ".join(fmt_float(v) for v in values) + "]"


@pytest.mark.parametrize("size", [_FLOAT_BATCH - 1, _FLOAT_BATCH, _FLOAT_BATCH + 1])
def test_zero_runs_match_the_per_value_form(size):
    # a SparseFloats writes its zeros from one cached run, in the first, a
    # middle or the last batch
    zeros = [0.0] * size
    assert dumps_json(SparseFloats(size, [], [])) == _per_value(zeros)
    for i in (0, size // 2, size - 1):
        for value in (-0.0, 5e-324, 0.0, 0.25):
            values = zeros.copy()
            values[i] = value
            assert dumps_json(SparseFloats(size, [i], [value])) == _per_value(values), (i, value)


def _layouts():
    # (length, indices): windows at 0, at the end, in the middle, a gap of
    # _FLOAT_BATCH +- 1 between two windows, length 1 and 2 (N = 1), a
    # single entry at 0 (eps = 0) and a window wider than one batch
    b = _FLOAT_BATCH
    yield 1, [0]
    yield 2, [0]
    yield 2, [1]
    yield 2, [0, 1]
    yield 9, list(range(9))
    yield 1001, [0]
    yield 1001, list(range(0, 40))
    yield 1001, list(range(960, 1001))
    for gap in (b - 1, b, b + 1):
        yield 3 * b, [5, 6, 7, 8 + gap, 9 + gap]
        yield gap + 3, [0, gap + 2]
    yield 3 * b + 7, list(range(3, 2 * b + 11))
    yield 10 * b, [0, 3, 4, 5 * b, 10 * b - 1]


@pytest.mark.parametrize("length, indices", list(_layouts()))
def test_sparse_writer_matches_the_dense_list(length, indices):
    values = [(k + 1) / 7 if k % 3 else 0.5**k for k in indices]
    sparse = SparseFloats(length, indices, values)
    dense = [0.0] * length
    for k, v in zip(indices, values):
        dense[k] = v
    assert len(sparse) == length
    assert list(sparse) == dense
    assert dumps_json(sparse) == _per_value(dense)
    assert "".join(json_chunks({"q": sparse})) == '{"q": ' + _per_value(dense) + "}"


@pytest.mark.parametrize(
    "length, indices, values, match",
    [
        (4, [0, 1], [1.0], "one value per index"),
        (4, [1, 1], [1.0, 2.0], "indices increasing"),
        (4, [2, 1], [1.0, 2.0], "indices increasing"),
        (4, [4], [1.0], "indices increasing"),
        (4, [-1], [1.0], "indices increasing"),
        (4, [1], [math.inf], "non-finite value inf"),
        (4, [0, 3], [0.5, math.nan], "non-finite value nan"),
    ],
)
def test_sparse_floats_refuse_bad_entries(length, indices, values, match):
    with pytest.raises(ValueError, match=match):
        SparseFloats(length, indices, values)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_value_inside_a_zero_run_is_refused(bad):
    # a SparseFloats refuses it when built, before anything is written
    with pytest.raises(ValueError, match="non-finite"):
        SparseFloats(2 * _FLOAT_BATCH, [_FLOAT_BATCH + 7], [bad])
    # a CSV refuses it in a block of rows that are otherwise zeros
    rows = [(0.0, 0.0, 0.0)] * (2 * _FLOAT_BATCH)
    rows[_FLOAT_BATCH + 7] = (0.0, bad, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        "".join(csv_chunks("x,y,z", FLOAT_ROW, rows))


def test_chunks_join_to_the_text():
    q = SparseFloats(3 * _FLOAT_BATCH, range(3 * _FLOAT_BATCH), [0.5] * (3 * _FLOAT_BATCH))
    obj = {"a": q, "b": {"c": 1, "x": None}, "d": {}}
    assert "".join(json_chunks(obj)) == dumps_json(obj)
    assert json.loads(dumps_json(obj)) == {**obj, "a": list(q)}
    rows = [(0.5 * i, 1.0, 2.0) for i in range(2 * _FLOAT_BATCH + 3)]
    chunks = list(csv_chunks("a,b,c", FLOAT_ROW, rows))
    lines = (",".join(map(fmt_float, row)) for row in rows)
    assert "".join(chunks) == "a,b,c\n" + "".join(line + "\n" for line in lines)
    assert len(chunks) == 1 + 3
    assert chunks[-1].endswith("4097,1,2\n")


_EDGE_STRINGS = [
    '"', "\\", *map(chr, range(0x20)), "\x7f", " ~", "\u2028", "\U0001f600", "\ud800", "\udfff",
    "", "plain_key", "\xe9\uffff\U0010ffff",
]


@pytest.mark.parametrize("text", [*_EDGE_STRINGS, "".join(_EDGE_STRINGS)], ids=ascii)
def test_strings_are_quoted_as_json_dumps_does(text):
    # the quoting is json.dumps's default, ASCII-only form, byte for byte,
    # as a value and as a key
    assert dumps_json(text) == json.dumps(text)
    assert dumps_json({text: text}) == json.dumps({text: text})
