import math
import sys

import numpy as np
import pytest

from catsize.core import (
    CatParams,
    branch_dyad,
    check_density_2x2,
    entropy_bits_2x2,
    entropy_s1,
    log_term_overlap,
    normalization_constant,
    phi_vectors,
    reduced_rho1,
    term_overlap,
)
from catsize.oracle import build_cat_state, partial_trace_to_first

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


@pytest.mark.parametrize("eps", EPS_GRID)
def test_trig_accessors(eps):
    p = CatParams(3, eps)
    assert abs(p.c_eps**2 + p.s_eps**2 - 1.0) < 1e-15
    assert abs(p.one_minus_c - (1.0 - p.c_eps)) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 5, 17])
@pytest.mark.parametrize("eps", [0.01, 0.3, 1.0, HALF_PI - 0.1])
def test_log_cn_matches_direct_power(n, eps):
    # exp(N ln c) vs repeated-multiplication power, where the latter is safe
    p = CatParams(n, eps)
    assert math.exp(p.log_cN) == pytest.approx(math.cos(eps) ** n, rel=1e-12)


def test_term_overlap_trivial_cases():
    for n in [1, 4, 9]:
        assert term_overlap(CatParams(n, 0.0)) == 1.0
        assert term_overlap(CatParams(n, HALF_PI)) < 1e-30


def test_term_overlap_headline_regime():
    # exact log-domain value at (N=1e6, eps=1e-3), frozen from a 60-digit
    # evaluation: 0.36787937985819088...; within 0.1% of e^-1
    value = term_overlap(CatParams(10**6, 1e-3))
    assert value == pytest.approx(0.3678793798581909, rel=1e-14)
    assert abs(value - math.exp(-1)) / math.exp(-1) < 1e-3


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_term_overlap_power_identity(n, eps):
    # log-domain powers compose exactly: log(N-qubit) == N * log(1-qubit)
    single = log_term_overlap(CatParams(1, eps))
    assert log_term_overlap(CatParams(n, eps)) == n * single


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
    # K - 2 = 2 sqrt(term_overlap), both equal 2 c^N
    p = CatParams(n, eps)
    k_minus_2 = normalization_constant(p) - 2.0
    other = 2.0 * math.sqrt(term_overlap(p))
    if other < 1e-15:
        # 2 c^N below the absolute resolution of K = 2 + 2 c^N
        assert k_minus_2 <= 1e-15
    else:
        assert k_minus_2 == pytest.approx(other, rel=1e-12)


def test_phi_vectors_and_dyad():
    p = CatParams(2, 0.7)
    phi1, phi2 = phi_vectors(p)
    assert np.allclose(phi1, [1, 0])
    assert abs(np.vdot(phi1, phi2) - p.c_eps) < 1e-15
    assert np.allclose(branch_dyad(p), np.outer(phi1, phi2.conj()))


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
    check_density_2x2(reduced_rho1(CatParams(n, eps)))


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
    p = CatParams(n, eps)
    assert entropy_s1(p) == pytest.approx(entropy_bits_2x2(reduced_rho1(p)), abs=1e-12)


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
        assert entropy_bits_2x2(rotated) == pytest.approx(entropy_s1(p), abs=1e-10)


def test_check_density_rejects_bad_matrices():
    with pytest.raises(ValueError):
        check_density_2x2(np.array([[0.5, 0.1], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density_2x2(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        check_density_2x2(np.diag([1.5, -0.5]))  # negative eigenvalue
