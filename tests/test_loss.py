import math

import numpy as np
import pytest

from catsize.core import CatParams, Linspace
from catsize.decoherence import effective_size_decoherence
from catsize.loss import (
    cat_loss_suppression,
    effective_size_loss,
    ghz_loss_suppression,
    loss_curve,
)
from catsize.oracle import enumerate_loss
from catsize.serialize import fmt_float
from domain import HALF_PI


def test_ghz_suppression_values():
    assert ghz_loss_suppression(3, 0.0) == 1.0
    assert ghz_loss_suppression(5, 1.0) == 0.0
    v = ghz_loss_suppression(20, 0.05)
    assert v == pytest.approx(0.3584859224085422, rel=1e-13)
    # small-lambda comparison against exp(-lambda n) = exp(-1)
    assert abs(v - math.exp(-1)) / math.exp(-1) < 0.03


@pytest.mark.parametrize("n", [1, 4, 12, 10**6])
@pytest.mark.parametrize("lam", [0.0, 0.2, 0.8, 1.0])
def test_cat_reduces_to_ghz_at_half_pi(n, lam):
    cat = cat_loss_suppression(CatParams(n, HALF_PI), lam)
    ghz = ghz_loss_suppression(n, lam)
    if ghz == 0.0:
        assert cat < 1e-16
    else:
        assert cat == pytest.approx(ghz, rel=1e-12)


def test_cat_suppression_edges():
    assert cat_loss_suppression(CatParams(9, 0.8), 0.0) == 1.0
    # total loss leaves the overlap factor c^N
    p = CatParams(9, 0.8)
    assert cat_loss_suppression(p, 1.0) == pytest.approx(
        math.cos(0.8) ** 9, rel=1e-12
    )


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.7])
@pytest.mark.parametrize("eps", [0.1, 0.7, math.pi / 4, HALF_PI - 0.1])
def test_cat_suppression_matches_subset_oracle(lam, eps):
    p = CatParams(6, eps)
    dense = enumerate_loss(p, lam)
    assert abs(dense - cat_loss_suppression(p, lam)) < 1e-9


def test_effective_size_values():
    assert abs(effective_size_loss(CatParams(10, HALF_PI)) - 10.0) < 1e-6
    assert effective_size_loss(CatParams(10, 0.0)) == 0.0
    headline = effective_size_loss(CatParams(10**6, 1e-3))
    assert headline == pytest.approx(0.4999999583333347, rel=1e-14)
    assert abs(headline - 0.5) / 0.5 < 1e-6


@pytest.mark.parametrize("n,eps", [(2, 0.1), (50, 0.7), (1000, 0.01), (10, HALF_PI)])
def test_effective_size_finite_difference_route(n, eps):
    p = CatParams(n, eps)
    # -(d/d lam) ln suppression at lam = 0, from the public suppression with
    # the one-sided second-order difference (lam < 0 is refused)
    h = 1e-6
    log_s = [math.log(cat_loss_suppression(p, lam)) for lam in (h, 2.0 * h)]
    numeric = -(4.0 * log_s[0] - log_s[1]) / (2.0 * h)
    assert numeric == pytest.approx(effective_size_loss(p), rel=1e-6)


@pytest.mark.parametrize("n", [2, 7, 10**4])
@pytest.mark.parametrize("eps", [0.05, 0.4, 1.0, HALF_PI - 0.01])
def test_half_angle_identity(n, eps):
    p = CatParams(n, eps)
    assert effective_size_loss(p) == pytest.approx(
        2.0 * n * math.sin(eps / 2) ** 2, rel=1e-12
    )
    assert effective_size_loss(p) == pytest.approx(
        n * (1.0 - math.cos(eps)), rel=1e-12
    )


@pytest.mark.parametrize("eps", [0.05, 0.4, 1.0, HALF_PI - 0.01])
def test_cross_method_ordering(eps):
    # 1 - cos eps < sin^2 eps < 2 (1 - cos eps) on (0, pi/2)
    p = CatParams(100, eps)
    n_loss = effective_size_loss(p)
    n_dec = effective_size_decoherence(p)
    assert n_loss < n_dec < 2.0 * n_loss


def test_monotonicity():
    lams = np.linspace(0.0, 1.0, 21)
    p = CatParams(12, 0.6)
    cat = [cat_loss_suppression(p, l) for l in lams]
    ghz = [ghz_loss_suppression(12, l) for l in lams]
    assert all(a > b for a, b in zip(cat, cat[1:]))
    assert all(a > b for a, b in zip(ghz, ghz[1:]))
    sizes = [cat_loss_suppression(CatParams(n, 0.6), 0.3) for n in [2, 5, 9]]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_typical_value_diagnostics():
    # the exact expectation (1 - lam (1 - c))^N never exceeds the
    # typical-value form exp(-lam N (1 - c)), since 1 - x <= exp(-x)
    p = CatParams(200, 0.3)
    for lam in (0.0, 0.1, 0.25, 0.7, 1.0):
        exact = cat_loss_suppression(p, lam)
        assert exact <= math.exp(-lam * 200 * p.one_minus_c)


def test_loss_curve_csv():
    p = CatParams(8, 0.5)
    curve = loss_curve(p, 2, Linspace(1.0, 3))
    lines = "".join(curve.to_csv()).splitlines()
    assert lines[0] == "lambda,ghz_suppression,cat_suppression"
    assert lines[1] == "0,1,1"
    assert len(lines) == 4
    # the endpoint 1 is in the domain
    last = "".join(loss_curve(p, 2, Linspace(1.0, 2)).to_csv()).splitlines()[-1]
    assert last == f"1,0,{fmt_float(cat_loss_suppression(p, 1.0))}"
