import math
import sys

import numpy as np
import pytest
from mpmath import mp, mpf

from catsize.core import CatParams, Linspace, entropy_s1, normalization_constant, reduced_rho1
from catsize.oracle import (
    branch_vectors,
    build_cat_state,
    dense_trace_norm,
    kron_power,
    partial_trace_to_first,
)

HALF_PI = math.pi / 2

EPS_GRID = [1e-6, 0.01, 0.1, 0.3, math.pi / 4, 1.2, HALF_PI - 0.1, HALF_PI]
N_GRID = [1, 2, 3, 7, 100, 10**5]


def test_params_validation():
    with pytest.raises(ValueError):
        CatParams(0, 0.1)
    with pytest.raises(ValueError):
        CatParams(-3, 0.1)
    with pytest.raises(ValueError):
        CatParams(2.5, 0.1)
    with pytest.raises(ValueError):
        CatParams(4, -0.001)
    with pytest.raises(ValueError):
        CatParams(4, HALF_PI + 0.001)
    # boundary angles are legal fixtures
    CatParams(1, 0.0)
    CatParams(1, HALF_PI)


def test_params_reject_n_beyond_largest_double():
    # every closed form multiplies N into a double, so N must fit in one
    with pytest.raises(ValueError, match="largest double"):
        CatParams(10**400, 0.1)
    with pytest.raises(ValueError):
        CatParams(int(sys.float_info.max) + 1, 0.1)
    assert CatParams(int(sys.float_info.max), 0.1).N == int(sys.float_info.max)
    assert CatParams(10**38, 0.1).N == 10**38


def test_counts_beyond_largest_double_are_refused():
    # the GHZ sizes and the curves' n_ref share CatParams' bound on N
    from catsize.decoherence import decay_curve, ghz_offdiag_norm
    from catsize.loss import LossModel, ghz_loss_suppression, loss_curve

    p, big = CatParams(10, 0.1), int(sys.float_info.max) + 1
    for call in (
        lambda n: ghz_offdiag_norm(n, 0.5),
        lambda n: ghz_loss_suppression(n, LossModel(0.5)),
        lambda n: decay_curve(p, n, Linspace(0.5, 2)),
        lambda n: loss_curve(p, n, Linspace(0.5, 2)),
    ):
        for n in (10**400, big):
            with pytest.raises(ValueError, match="largest double"):
                call(n)
        call(int(sys.float_info.max))


@pytest.mark.parametrize("eps", EPS_GRID)
def test_trig_accessors(eps):
    p = CatParams(3, eps)
    assert abs(p.c_eps**2 + p.s_eps**2 - 1.0) < 1e-15
    assert abs(p.one_minus_c - (1.0 - p.c_eps)) < 1e-15


def test_one_minus_c_within_one_ulp_where_cos_is_at_most_half():
    # on eps in [pi/3, pi/2] the half-angle form 2 sin^2(eps/2) is off by up
    # to 1.9 ulp; the difference 1 - cos(eps) stays within 0.75
    worst = 0.0
    with mp.workdps(50):
        for eps in np.linspace(math.pi / 3, HALF_PI, 20001).tolist():
            ref = 1 - mp.cos(mpf(eps))
            err = abs(mpf(CatParams(1, eps).one_minus_c) - ref) / math.ulp(float(ref))
            worst = max(worst, float(err))
    assert worst <= 1.0
    assert CatParams(1, HALF_PI).one_minus_c == 1.0 - math.cos(math.pi / 2)


@pytest.mark.parametrize("n", [1, 2, 5, 17])
@pytest.mark.parametrize("eps", [0.01, 0.3, 1.0, HALF_PI - 0.1])
def test_log_cn_matches_direct_power(n, eps):
    # exp(N ln c) vs repeated-multiplication power, where the latter is safe
    p = CatParams(n, eps)
    assert math.exp(p.log_cN) == pytest.approx(math.cos(eps) ** n, rel=1e-12)


def test_term_overlap_trivial_cases():
    # exp(log_cN) is the branch overlap <phi1|phi2>^N = c^N
    for n in [1, 4, 9]:
        assert math.exp(CatParams(n, 0.0).log_cN) == 1.0
        assert math.exp(CatParams(n, HALF_PI).log_cN) < 1e-15
        p = CatParams(n, 0.7)
        phi1, phi2 = branch_vectors(p)
        dense = np.vdot(kron_power(phi1.reshape(2, 1), n), kron_power(phi2.reshape(2, 1), n))
        assert dense.real == pytest.approx(math.exp(p.log_cN), rel=1e-12)


def test_term_overlap_headline_regime():
    # exact log-domain value at (N=1e6, eps=1e-3), frozen from a 60-digit
    # evaluation: c^N = 0.60653060916840040...; its square, the overlap of
    # the two N-qubit branches, 0.36787937985819088..., is within 0.1% of e^-1
    c_n = math.exp(CatParams(10**6, 1e-3).log_cN)
    assert c_n == pytest.approx(0.6065306091684004, rel=1e-14)
    assert c_n**2 == pytest.approx(0.3678793798581909, rel=1e-14)
    assert abs(c_n**2 - math.exp(-1)) / math.exp(-1) < 1e-3


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_term_overlap_power_identity(n, eps):
    # log-domain powers compose exactly: log(N-qubit) == N * log(1-qubit)
    single = CatParams(1, eps).log_cN
    assert CatParams(n, eps).log_cN == n * single


def test_normalization_trivial_and_hand_values():
    assert normalization_constant(CatParams(5, HALF_PI)) == pytest.approx(2.0, abs=1e-12)
    assert normalization_constant(CatParams(5, 0.0)) == 4.0
    # K(3, pi/3) = 2 (1 + 0.5^3) = 2.25
    assert normalization_constant(CatParams(3, math.pi / 3)) == pytest.approx(
        2.25, abs=1e-14
    )


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_normalization_overlap_identity(n, eps):
    # K - 2 = 2 c^N, against a 30-digit power
    p = CatParams(n, eps)
    k_minus_2 = normalization_constant(p) - 2.0
    with mp.workdps(30):
        other = float(2 * mp.cos(mpf(eps)) ** n)
    if other < 1e-15:
        # 2 c^N below the absolute resolution of K = 2 + 2 c^N
        assert k_minus_2 <= 1e-15
    else:
        assert k_minus_2 == pytest.approx(other, rel=1e-12)


def test_phi_vectors_and_dyad():
    # unit branch vectors with overlap c; the dyad |phi1><phi2| has unit trace norm
    p = CatParams(2, 0.7)
    phi1, phi2 = branch_vectors(p)
    assert np.allclose(phi1, [1, 0])
    assert abs(np.vdot(phi2, phi2) - 1.0) < 1e-15
    assert abs(np.vdot(phi1, phi2) - p.c_eps) < 1e-15
    assert dense_trace_norm(np.outer(phi1, phi2.conj())) == pytest.approx(1.0, abs=1e-15)


def test_reduced_rho1_rejects_small_n():
    with pytest.raises(ValueError):
        reduced_rho1(CatParams(1, 0.3))
    with pytest.raises(ValueError):
        entropy_s1(CatParams(1, 0.3))


def test_reduced_rho1_trivial_cases():
    np.testing.assert_allclose(
        reduced_rho1(CatParams(4, HALF_PI)), np.diag([0.5, 0.5]), atol=1e-12
    )
    np.testing.assert_allclose(
        reduced_rho1(CatParams(4, 0.0)), np.diag([1.0, 0.0]), atol=1e-15
    )


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("eps", [0.1, 0.4, math.pi / 4, HALF_PI - 0.1, HALF_PI])
def test_reduced_rho1_matches_oracle_partial_trace(n, eps):
    p = CatParams(n, eps)
    dense = partial_trace_to_first(build_cat_state(p))
    assert np.max(np.abs(dense - reduced_rho1(p))) < 1e-12


@pytest.mark.parametrize("n", [2, 6, 50, 10**6])
@pytest.mark.parametrize("eps", EPS_GRID)
def test_reduced_rho1_is_density_operator(n, eps):
    rho = reduced_rho1(CatParams(n, eps))
    assert rho.shape == (2, 2)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_entropy_trivial_cases():
    assert entropy_s1(CatParams(4, HALF_PI)) == pytest.approx(1.0, abs=1e-12)
    assert entropy_s1(CatParams(4, 0.0)) == 0.0


def test_entropy_headline_regime():
    # frozen from a 60-digit evaluation of the closed form at (1e7, 1e-3):
    # S1 = 5.7701406330616796e-06 bits.  The leading-log asymptote
    # -eps^2 log2(eps)/2 = 4.9829e-06 sits ~15.8% below it at this eps; its
    # relative error only decays like 1/log2(1/eps).
    s = entropy_s1(CatParams(10**7, 1e-3))
    assert s == pytest.approx(5.77014063306168e-06, rel=1e-12)
    asym = -(1e-3) ** 2 * math.log2(1e-3) / 2
    assert 0.14 < (s - asym) / asym < 0.17


def test_entropy_approaches_asymptote_slowly():
    # with N eps^2 = 10 fixed, the relative gap to -eps^2 log2(eps)/2 decays
    # only like 1/log2(1/eps): the scaled gap stays order one
    gaps = []
    for eps, n in [(1e-3, 10**7), (1e-5, 10**11), (1e-8, 10**17)]:
        s = entropy_s1(CatParams(n, eps))
        asym = -(eps**2) * math.log2(eps) / 2
        gap = (s - asym) / asym
        gaps.append(gap)
        assert 1.3 < gap * (-math.log2(eps)) < 1.7
    assert gaps[0] > gaps[1] > gaps[2] > 0


@pytest.mark.parametrize("n", [2, 4, 9])
@pytest.mark.parametrize("eps", [0.2, 0.8, math.pi / 4, HALF_PI])
def test_entropy_consistent_with_generic_2x2_route(n, eps):
    # the closed form against -sum lam log2 lam over the eigvalsh eigenvalues
    p = CatParams(n, eps)
    lams = np.linalg.eigvalsh(reduced_rho1(p)).tolist()
    generic = -sum(lam * math.log2(lam) for lam in lams if lam > 0.0)
    assert entropy_s1(p) == pytest.approx(generic, abs=1e-12)


def test_entropy_invariant_under_basis_rotation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        eps = float(rng.uniform(0.05, HALF_PI))
        p = CatParams(n, eps)
        rho = reduced_rho1(p).astype(complex)
        # random unitary from a QR decomposition
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        rotated = u @ rho @ u.conj().T
        lams = np.linalg.eigvalsh(rotated).tolist()
        rotated_entropy = -sum(lam * math.log2(lam) for lam in lams if lam > 0.0)
        assert rotated_entropy == pytest.approx(entropy_s1(p), abs=1e-10)


@pytest.mark.parametrize("endpoint", [0.0, -0.0, -1.0, math.inf, math.nan])
def test_linspace_refuses_an_endpoint_not_finite_and_positive(endpoint):
    with pytest.raises(ValueError, match="grid endpoint must be finite and > 0"):
        Linspace(endpoint, 3)


@pytest.mark.parametrize("steps", [1, 0, -5, 2.0, 2.5])
def test_linspace_refuses_fewer_than_2_points_or_a_non_integer_count(steps):
    with pytest.raises(ValueError, match="a grid needs at least 2 points"):
        Linspace(1.0, steps)


@pytest.mark.parametrize(
    "grid",
    [[0.0, 0.5], (0.0, 0.5), np.linspace(0.0, 0.5, 2), range(2)],
    ids=lambda g: type(g).__name__,
)
def test_curves_take_only_a_linspace(grid):
    from catsize.decoherence import decay_curve
    from catsize.loss import loss_curve

    p = CatParams(10, 0.1)
    with pytest.raises(TypeError, match="gamma_t grid must be a Linspace"):
        decay_curve(p, 1, grid)
    with pytest.raises(TypeError, match="lambda grid must be a Linspace"):
        loss_curve(p, 1, grid)
