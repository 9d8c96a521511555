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


def test_finite_values_round_trip():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(5e-324)) == 5e-324
    assert dumps_json({"a": [1.5, np.float64(2.0)], "b": None}) == '{"a": [1.5, 2], "b": null}'
    assert "".join(csv_chunks("x,y", [("PASS", 0.25)])) == "x,y\nPASS,0.25\n"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(np.inf)])
def test_non_finite_values_are_refused(bad):
    # inf and nan have no JSON token; the CLI maps this ValueError to exit 2
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json({"q": [0.5, bad]})
    with pytest.raises(ValueError, match="non-finite"):
        "".join(csv_chunks("gamma_t,ghz_norm", [(0.0, 1.0), (1.0, bad)]))


def test_float_lists_match_the_per_value_form():
    # the bytes of a float list equal fmt_float per value
    values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e17, 2.0**70, -1e-300]
    assert dumps_json(values) == "[" + ", ".join(fmt_float(v) for v in values) + "]"
    assert dumps_json(np.array(values).tolist()) == dumps_json(values)
    assert dumps_json({"q": []}) == '{"q": []}'


def test_mixed_lists_keep_their_tokens():
    assert dumps_json([1, 2.5, True, False, None, "x"]) == '[1, 2.5, true, false, null, "x"]'
    assert dumps_json([10**20, 1.0]) == "[100000000000000000000, 1]"
    assert dumps_json([np.float64(0.1), 0.5]) == "[0.10000000000000001, 0.5]"
    # zeros that are not the float +0.0 keep their own tokens
    assert dumps_json([0.0, 0, False, np.float64(0.0), -0.0]) == "[0, 0, false, 0, -0]"


def _per_value(values):
    return "[" + ", ".join(fmt_float(v) for v in values) + "]"


@pytest.mark.parametrize("size", [_FLOAT_BATCH - 1, _FLOAT_BATCH, _FLOAT_BATCH + 1])
def test_zero_runs_match_the_per_value_form(size):
    # a SparseFloats writes its zeros from one cached run, in the first, a
    # middle or the last batch; a plain list formats every entry
    zeros = [0.0] * size
    assert dumps_json(SparseFloats(size, [], [])) == _per_value(zeros)
    assert dumps_json(zeros) == _per_value(zeros)
    for i in (0, size // 2, size - 1):
        for value in (-0.0, 5e-324, 0.0, 0.25):
            values = zeros.copy()
            values[i] = value
            assert dumps_json(SparseFloats(size, [i], [value])) == _per_value(values), (i, value)
            assert dumps_json(values) == _per_value(values), (i, value)


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
    assert dumps_json(sparse) == _per_value(dense) == dumps_json(dense)
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
    values = [0.0] * (2 * _FLOAT_BATCH)
    values[_FLOAT_BATCH + 7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json({"q": values})
    # a SparseFloats refuses it when built, before anything is written
    with pytest.raises(ValueError, match="non-finite"):
        SparseFloats(len(values), [_FLOAT_BATCH + 7], [bad])


def test_chunks_join_to_the_text():
    obj = {"a": [0.5] * (3 * _FLOAT_BATCH), "b": {"c": [1, "x", None]}, "d": {}, "e": []}
    assert "".join(json_chunks(obj)) == dumps_json(obj)
    assert json.loads(dumps_json(obj)) == obj
    rows = [(0.5 * i, 1.0, 2.0) for i in range(2 * _FLOAT_BATCH + 3)] + [("x", 0.25)]
    chunks = list(csv_chunks("a,b,c", rows))
    lines = (",".join(v if isinstance(v, str) else fmt_float(v) for v in row) for row in rows)
    assert "".join(chunks) == "a,b,c\n" + "".join(line + "\n" for line in lines)
    assert len(chunks) == 1 + 3
    assert chunks[-1].endswith("x,0.25\n")


@pytest.mark.parametrize(
    "value, token",
    [
        (np.int64(-7), "-7"),
        (np.int64(2**62), "4611686018427387904"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.array([0.5, 1e-300, 3.0]), "[0.5, 1e-300, 3]"),
    ],
)
def test_numpy_values_keep_their_tokens(value, token):
    # the serializer never imports numpy; it recognises numpy integers and
    # floats through the numbers ABCs and an ndarray once numpy is loaded
    assert dumps_json({"v": value}) == '{"v": ' + token + "}"
    assert dumps_json([value, 1.0]) == "[" + token + ", 1]"
    if np.ndim(value) == 0:
        row, line = ("x", value), "x," + fmt_float(value)
    else:
        row, line = tuple(value), ",".join(fmt_float(v) for v in value)
    assert "".join(csv_chunks("a,b", [row])) == "a,b\n" + line + "\n"


def test_numpy_int_in_csv_is_a_float_token():
    assert "".join(csv_chunks("a", [(np.int64(2**62),)])) == "a\n4.6116860184273879e+18\n"


def test_numpy_bool_and_inf_keep_their_behaviour():
    for obj in ({"v": np.bool_(True)}, [np.bool_(False), 1.0]):
        with pytest.raises(TypeError, match="cannot serialize object of type bool"):
            dumps_json(obj)
    assert "".join(csv_chunks("a,b", [("x", np.bool_(True))])) == "a,b\nx,1\n"
    for obj in ({"v": np.float64(np.inf)}, [np.float64(np.inf), 1.0]):
        with pytest.raises(ValueError, match="cannot serialize non-finite value inf"):
            dumps_json(obj)
    with pytest.raises(ValueError, match="cannot serialize non-finite value inf"):
        "".join(csv_chunks("a,b", [("x", np.float64(np.inf))]))
