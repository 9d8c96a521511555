"""The effective sizes of the report over the whole input domain.

eps runs from 0 through subnormal values to pi/2 and N from 2 to 1e300;
every size the report gives must be a number an n-party GHZ state can
have, and a larger branch angle must never make the state smaller.
"""

import math

import pytest

from catsize.core import CatParams
from catsize.report import EffectiveSizeReport, build_effective_size_report
from domain import EPS, NS, reportable

N = sorted({*filter(reportable, NS), *(10**k for k in (1, 2, 3, 6, 9, 12, 15, 18, 30, 100))})
# the effective sizes; -N eps^2 log2(eps) / 2 is an asymptote, not bounded by N
SIZES = [
    name
    for name in EffectiveSizeReport._fields
    if name.startswith("n_") and name != "n_distill_upper_asymptotic"
]


@pytest.mark.parametrize("n", N, ids=lambda n: f"{n:.3g}")
def test_sizes_lie_in_0_n_and_grow_with_eps(n):
    # N enters every closed form as the nearest double, which lies above N
    # for some N (10^30) and below it for others (2^53 + 1)
    top = float(n)
    reports = [build_effective_size_report(CatParams(n, eps)) for eps in EPS]
    for name in SIZES:
        sizes = [getattr(r, name) for r in reports]
        assert all(math.isfinite(v) and 0.0 <= v <= top for v in sizes), (name, sizes)
        assert all(a <= b for a, b in zip(sizes, sizes[1:])), (name, sizes)
        # at eps = pi/2 the state is an N-qubit GHZ state; n_loss and
        # n_distill_mean fall up to 1 ulp below N there, because cos of the
        # double nearest pi/2 is 6.1e-17, not 0
        assert abs(sizes[-1] - top) <= math.ulp(top), (name, sizes[-1])


def test_payload_keys_keep_their_order():
    # the JSON key order of effective-size is the record's field order
    payload = build_effective_size_report(CatParams(N=10, epsilon=0.5)).to_payload()
    assert type(payload) is dict
    assert list(payload) == list(EffectiveSizeReport._fields) == [
        "N", "epsilon", "n_decoherence", "n_distill_mean", "n_distill_upper_exact",
        "n_distill_upper_asymptotic", "n_loss", "reference_N_eps_sq",
    ]
