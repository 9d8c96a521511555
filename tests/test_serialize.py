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
