import math

import numpy as np
import pytest

from catsize.serialize import _FLOAT_BATCH, csv_text, dumps_json, fmt_float


def test_finite_values_round_trip():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(5e-324)) == 5e-324
    assert dumps_json({"a": [1.5, np.float64(2.0)], "b": None}) == '{"a": [1.5, 2], "b": null}'
    assert csv_text("x,y", [("PASS", 0.25)]) == "x,y\nPASS,0.25\n"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(np.inf)])
def test_non_finite_values_are_refused(bad):
    # inf and nan have no JSON token; the CLI maps this ValueError to exit 2
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json({"q": [0.5, bad]})
    with pytest.raises(ValueError, match="non-finite"):
        csv_text("gamma_t,ghz_norm", [(0.0, 1.0), (1.0, bad)])


def test_float_lists_match_the_per_value_form():
    # float lists take one formatting pass; the bytes equal fmt_float per value
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
    # a batch of +0.0 is written from one cached string; -0.0 and a
    # subnormal inside a run, in the first or the last batch, must not be
    zeros = [0.0] * size
    assert dumps_json(zeros) == _per_value(zeros)
    assert dumps_json(np.zeros(size).tolist()) == _per_value(zeros)  # distinct objects
    for i in (0, size // 2, size - 1):
        for value in (-0.0, 5e-324):
            values = zeros.copy()
            values[i] = value
            assert dumps_json(values) == _per_value(values), (i, value)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_value_inside_a_zero_run_is_refused(bad):
    values = [0.0] * (2 * _FLOAT_BATCH)
    values[_FLOAT_BATCH + 7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json({"q": values})


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
    assert csv_text("a,b", [row]) == "a,b\n" + line + "\n"


def test_numpy_int_in_csv_is_a_float_token():
    assert csv_text("a", [(np.int64(2**62),)]) == "a\n4.6116860184273879e+18\n"


def test_numpy_bool_and_inf_keep_their_behaviour():
    for obj in ({"v": np.bool_(True)}, [np.bool_(False), 1.0]):
        with pytest.raises(TypeError, match="cannot serialize object of type bool"):
            dumps_json(obj)
    assert csv_text("a,b", [("x", np.bool_(True))]) == "a,b\nx,1\n"
    for obj in ({"v": np.float64(np.inf)}, [np.float64(np.inf), 1.0]):
        with pytest.raises(ValueError, match="cannot serialize non-finite value inf"):
            dumps_json(obj)
    with pytest.raises(ValueError, match="cannot serialize non-finite value inf"):
        csv_text("a,b", [("x", np.float64(np.inf))])
