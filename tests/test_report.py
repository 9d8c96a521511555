"""The effective sizes of the report over the whole input domain.

eps runs from 0 through subnormal values to pi/2 and N from 2 to 1e300;
every size the report gives must be a number an n-party GHZ state can
have, and a larger branch angle must never make the state smaller.
"""

import math
from dataclasses import fields

import pytest

from catsize.core import CatParams
from catsize.report import EffectiveSizeReport, build_effective_size_report

HALF_PI = math.pi / 2

# ascending, both ends included
EPS = [0.0, 5e-324, 1e-300, 1e-8, 1e-3, math.pi / 4, math.nextafter(HALF_PI, 0.0), HALF_PI]
N = [2, *(10**k for k in (1, 2, 3, 6, 9, 12, 15, 18, 30, 100)), 2**53 + 1, int(1e300)]
# the effective sizes; -N eps^2 log2(eps) / 2 is an asymptote, not bounded by N
SIZES = [
    f.name
    for f in fields(EffectiveSizeReport)
    if f.name.startswith("n_") and f.name != "n_distill_upper_asymptotic"
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
