"""Property test of the outcome distribution and the sampler over the input domain.

Kept apart from test_distillation.py so that the rest of the distillation
tests run without hypothesis, the one test dependency that is optional.
"""

import json
import math
import warnings

import pytest

from catsize import distillation
from catsize.core import CatParams
from catsize.distillation import outcome_distribution, simulate_protocol
from catsize.serialize import json_chunks
from domain import EPS, HALF_PI

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# the table's edge points and every angle between them
DOMAIN_EPS = st.sampled_from(EPS) | st.floats(0.0, HALF_PI, exclude_min=True, exclude_max=True)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5000), eps=DOMAIN_EPS)
def test_distributions_over_the_input_domain(n, eps):
    p = CatParams(n, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dist = outcome_distribution(p)
        q = dist.to_payload()["q"]
        dense_q = list(map(math.exp, distillation._log_q(p, range(n + 1))))
        mc = simulate_protocol(p, 300, seed=n)
    assert list(q) == dense_q
    assert abs(math.fsum(q) - 1.0) <= 1e-12
    assert sum(mc.tallies) == 300


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5000), eps=DOMAIN_EPS)
def test_written_payload_over_the_input_domain(n, eps):
    # the JSON the CLI writes, parsed back: N + 1 finite entries per list,
    # and the exact q sums to 1
    p = CatParams(n, eps)
    payload = {"exact": outcome_distribution(p).to_payload(),
               "mc": simulate_protocol(p, 50, seed=n).to_payload()}
    parsed = json.loads("".join(json_chunks(payload)))
    for part in parsed.values():
        assert len(part["q"]) == n + 1
        assert all(math.isfinite(v) for v in part["q"])
    assert abs(math.fsum(parsed["exact"]["q"]) - 1.0) <= 1e-12
    assert math.fsum(parsed["mc"]["q"]) == pytest.approx(1.0, abs=1e-12)
