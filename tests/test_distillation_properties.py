"""Property test of the outcome distribution and the sampler over the input domain.

Kept apart from test_distillation.py so that the rest of the distillation
tests run without hypothesis, the one test dependency that is optional.
"""

import math
import warnings

import numpy as np
import pytest

from catsize import distillation
from catsize.core import CatParams
from catsize.distillation import outcome_distribution, simulate_protocol

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

HALF_PI = math.pi / 2

_EDGE_EPS = [0.0, 5e-324, 1e-300, 1e-8, math.nextafter(HALF_PI, 0.0), HALF_PI]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5000),
    eps=st.sampled_from(_EDGE_EPS) | st.floats(0.0, HALF_PI, exclude_min=True, exclude_max=True),
)
def test_distributions_over_the_input_domain(n, eps):
    p = CatParams(n, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dist = outcome_distribution(p)
        q = dist.to_payload()["q"]
        dense_q = np.exp(distillation._log_q(p, 0, n)).tolist()
        mc = simulate_protocol(p, 300, seed=n)
    assert q == dense_q
    assert abs(math.fsum(q) - 1.0) <= 1e-12
    assert int(mc.tallies.sum()) == 300
