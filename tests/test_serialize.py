import math

import numpy as np
import pytest

from catsize.serialize import csv_text, dumps_json, fmt_float


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
