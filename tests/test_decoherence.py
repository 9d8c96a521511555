import math

import numpy as np
import pytest
from mpmath import mp, mpf

from catsize.core import CatParams, Linspace
from catsize.decoherence import (
    cat_offdiag_norm,
    decay_curve,
    effective_size_decoherence,
    ghz_offdiag_norm,
)
from catsize.oracle import (
    CHANNEL_KINDS,
    ChannelSpec,
    apply_product_channel,
    branch_vectors,
    dense_trace_norm,
    kron_power,
)
from domain import HALF_PI


def initial_decay_rate(norm, h=1e-6):
    # -(d/dt) ln norm(t) at t = 0 from the public norm, with norm(0) = 1:
    # the one-sided second-order difference (gamma_t < 0 is refused)
    return -(4.0 * math.log(norm(h)) - math.log(norm(2.0 * h))) / (2.0 * h)


def test_ghz_norm_values():
    assert ghz_offdiag_norm(7, 0.0) == 1.0
    assert ghz_offdiag_norm(10, 0.1) == pytest.approx(math.exp(-1.0), rel=1e-15)
    for gt in [0.05, 0.4, 3.0]:
        assert ghz_offdiag_norm(1, gt) == pytest.approx(math.exp(-gt), rel=1e-15)


@pytest.mark.parametrize("n", [1, 3, 10, 10**6])
@pytest.mark.parametrize("gamma_t", [0.01, 0.3, 2.0])
def test_cat_reduces_to_ghz_at_half_pi(n, gamma_t):
    cat = cat_offdiag_norm(CatParams(n, HALF_PI), gamma_t)
    ghz = ghz_offdiag_norm(n, gamma_t)
    assert cat == pytest.approx(ghz, rel=1e-12)


@pytest.mark.parametrize("gamma_t", [20.0, 400.0])
def test_cat_norm_at_half_pi_beyond_expm1_rounding(gamma_t):
    # past gamma_t ~ 18.4, s^2 expm1(-2 gamma_t) rounds to -1 at eps = pi/2;
    # the reference is d^(N/2) at the exact double eps, where c^2 = 3.7e-33
    # takes over from exp(-2 gamma_t) at gamma_t ~ 37
    with mp.workdps(40):
        eps = mpf(HALF_PI)
        d = mp.cos(eps) ** 2 + mp.sin(eps) ** 2 * mp.exp(-2 * mpf(gamma_t))
        ref = float(d**5)
    assert cat_offdiag_norm(CatParams(10, HALF_PI), gamma_t) == pytest.approx(ref, rel=1e-13)


def test_cat_norm_time_zero_and_kind_independence():
    # the closed form takes no channel kind: it is the same for both, which
    # test_cat_norm_matches_dense_oracle checks against each kind's evolution
    grid = [(2, 0.1), (8, 0.5), (100, 1.2), (10**6, 1e-3)]
    for n, eps in grid:
        assert cat_offdiag_norm(CatParams(n, eps), 0.0) == 1.0


def test_cat_norm_frozen_value():
    # d^(N/2) at (N=8, eps=0.5, gamma t=0.3)
    assert cat_offdiag_norm(CatParams(8, 0.5), 0.3) == pytest.approx(
        0.6453623896923302, rel=1e-13
    )


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_cat_norm_matches_dense_oracle(kind):
    p = CatParams(8, 0.5)
    phi1, phi2 = branch_vectors(p)
    block = kron_power(np.outer(phi1, phi2.conj()), 8)
    evolved = apply_product_channel(block, ChannelSpec(kind, 0.3))
    dense = dense_trace_norm(evolved)
    closed = cat_offdiag_norm(p, 0.3)
    assert dense == pytest.approx(closed, rel=1e-9)


def test_effective_size_trivial_and_headline():
    assert effective_size_decoherence(CatParams(17, HALF_PI)) == 17.0
    assert effective_size_decoherence(CatParams(17, 0.0)) == 0.0
    headline = effective_size_decoherence(CatParams(10**6, 1e-3))
    assert headline == pytest.approx(0.999999666666711, rel=1e-14)
    assert abs(headline - 1.0) < 1e-5


@pytest.mark.parametrize(
    "n,eps", [(2, 0.1), (50, 0.7), (1000, 0.01), (10, HALF_PI), (10**6, 1e-3)]
)
def test_effective_size_finite_difference_route(n, eps):
    p = CatParams(n, eps)
    exact = effective_size_decoherence(p)
    numeric = initial_decay_rate(lambda t: cat_offdiag_norm(p, t))
    assert numeric == pytest.approx(exact, rel=1e-6)


def test_effective_size_finite_difference_product_state():
    p = CatParams(5, 0.0)
    assert initial_decay_rate(lambda t: cat_offdiag_norm(p, t)) == 0.0
    assert effective_size_decoherence(p) == 0.0


def test_rate_identity_against_ghz_slope():
    # initial slope of -ln cat norm equals sin(eps)^2 times the GHZ slope at n=N
    for n, eps in [(20, 0.3), (500, 0.05)]:
        p = CatParams(n, eps)
        ghz_slope = initial_decay_rate(lambda t: ghz_offdiag_norm(n, t))
        cat_slope = initial_decay_rate(lambda t: cat_offdiag_norm(p, t))
        assert cat_slope == pytest.approx(p.s_eps**2 * ghz_slope, rel=1e-6)


def test_monotonicity():
    p = CatParams(30, 0.4)
    ts = np.linspace(0.0, 3.0, 40)
    cat = [cat_offdiag_norm(p, t) for t in ts]
    ghz = [ghz_offdiag_norm(30, t) for t in ts]
    assert all(a > b for a, b in zip(cat, cat[1:]))
    assert all(a > b for a, b in zip(ghz, ghz[1:]))
    # decreasing in N at fixed time
    norms = [cat_offdiag_norm(CatParams(n, 0.4), 0.5) for n in [2, 4, 8, 16]]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_small_eps_short_time_regime():
    # |d^(N/2) - exp(-N eps^2 gamma t)| / d^(N/2) <= 5% when eps <= 0.05,
    # gamma t <= 0.05 and N eps^2 gamma t <= 0.1
    cases = [
        (0.01, 0.01, 10**5),
        (0.01, 0.05, 2 * 10**4),
        (0.05, 0.01, 4000),
        (0.05, 0.05, 800),
        (0.05, 0.05, 100),
    ]
    for eps, gt, n in cases:
        assert n * eps * eps * gt <= 0.1 + 1e-12
        exact = cat_offdiag_norm(CatParams(n, eps), gt)
        approx = math.exp(-n * eps * eps * gt)
        assert abs(exact - approx) / exact <= 0.05


def test_decay_curve_trivial_grid():
    # the smallest grid is 0 and the endpoint; at the smallest endpoint
    # both curves stay at 1
    curve = decay_curve(CatParams(4, 0.3), 2, Linspace(5e-324, 2))
    rows = "".join(curve.to_csv()).splitlines()
    assert rows == ["gamma_t,ghz_norm,cat_norm", "0,1,1", "4.9406564584124654e-324,1,1"]


def test_decay_curve_ghz_case_columns_identical():
    n = 6
    curve = decay_curve(CatParams(n, HALF_PI), n, Linspace(2.0, 9))
    rows = np.loadtxt("".join(curve.to_csv()).splitlines(), delimiter=",", skiprows=1)
    assert rows.shape == (9, 3)
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-12


def test_decay_curve_first_order_agreement():
    # with the GHZ reference at the matched (real-valued) rate N sin^2 eps,
    # log curves agree to first order: |ln ratio| <= 2 N (gamma t)^2
    n, eps = 100, 0.2
    p = CatParams(n, eps)
    rate = n * math.sin(eps) ** 2
    for gt in [1e-3, 1e-2, 5e-2]:
        ln_cat = math.log(cat_offdiag_norm(p, gt))
        ln_ghz = -rate * gt
        assert abs(ln_cat - ln_ghz) <= 2.0 * n * gt * gt


def test_decay_curve_csv_format():
    curve = decay_curve(CatParams(8, 0.5), 4, Linspace(1.0, 2))
    lines = "".join(curve.to_csv()).splitlines()
    assert lines[0] == "gamma_t,ghz_norm,cat_norm"
    assert lines[1] == "0,1,1"
    t, g, c = (float(v) for v in lines[2].split(","))
    assert t == 1.0
    assert g == ghz_offdiag_norm(4, 1.0)
    assert c == cat_offdiag_norm(CatParams(8, 0.5), 1.0)
