import json
import math
import operator
import random
import sys
import time
from collections import Counter

import numpy as np
import pytest
from mpmath import mp

from catsize import distillation
from catsize.core import CatParams, _check_int, expected_n
from catsize.distillation import (
    _bd0,
    _binomial,
    _first_success,
    _stirlerr,
    build_filter,
    outcome_distribution,
    simulate_protocol,
)
from catsize.oracle import biorthonormal_filter, branch_vectors
from catsize.report import build_effective_size_report
from catsize.serialize import dumps_json

HALF_PI = math.pi / 2
PI_3 = math.pi / 3

EPS_GRID = [0.05, 0.3, PI_3, math.pi / 4, HALF_PI - 0.1, HALF_PI]


def test_build_filter_rejects_degenerate_input():
    with pytest.raises(ValueError):
        build_filter(CatParams(4, 0.0))


def test_filter_at_half_pi_is_trivial():
    p = CatParams(4, HALF_PI)
    a, a_bar = build_filter(p)
    assert np.max(np.abs(a - np.eye(2))) < 1e-12
    assert np.max(np.abs(a_bar)) < 1e-7
    assert p.one_minus_c == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_filter_invariants(eps):
    p = CatParams(6, eps)
    a, a_bar = build_filter(p)
    completeness = a.conj().T @ a + a_bar.conj().T @ a_bar
    assert np.max(np.abs(completeness - np.eye(2))) < 1e-12
    # the complement is rank one
    complement = np.eye(2) - a.conj().T @ a
    evals = np.linalg.eigvalsh(complement)
    assert evals[0] < 1e-12
    # both branches pass the filter with probability k^2 = 1 - cos(eps)
    phi1, phi2 = branch_vectors(p)
    gram = a.conj().T @ a
    assert (phi1.conj() @ gram @ phi1).real == pytest.approx(p.one_minus_c, abs=1e-12)
    assert (phi2.conj() @ gram @ phi2).real == pytest.approx(p.one_minus_c, abs=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_filter_gram_spectrum(eps):
    # eigenvalues of A^dag A are {1, (1-c)/(1+c)}
    p = CatParams(3, eps)
    a, _ = build_filter(p)
    evals = np.linalg.eigvalsh(a.conj().T @ a)
    c = p.c_eps
    np.testing.assert_allclose(
        evals, [(1 - c) / (1 + c), 1.0], rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("eps", EPS_GRID)
def test_filter_matches_numeric_biorthonormal_construction(eps):
    p = CatParams(5, eps)
    a, a_bar = build_filter(p)
    a_num, a_bar_num = biorthonormal_filter(p)
    assert np.max(np.abs(a - a_num)) < 1e-12
    # the oracle's eigh root of the rank-deficient complement is only
    # conditioned to sqrt(machine eps) in the null direction
    assert np.max(np.abs(a_bar - a_bar_num)) < 1e-7


def _reference_filter(eps: float):
    # (A, A_bar) at 60 digits from the biorthonormal form
    # A = (sqrt(1 - c) / s) [[s, -c], [0, 1]] and A_bar = M / sqrt(tr M), the
    # root of the rank-one M = I - A^T A; 1 - c is taken as 2 sin^2(eps/2),
    # which 60 digits hold down to the smallest subnormal eps
    with mp.workdps(60):
        e = mp.mpf(eps)
        c, s = mp.cos(e), mp.sin(e)
        a = (mp.sqrt(2) * mp.sin(e / 2) / s) * mp.matrix([[s, -c], [0, 1]])
        m = mp.eye(2) - a.T * a
        return a, m / mp.sqrt(m[0, 0] + m[1, 1])


@pytest.mark.parametrize(
    "eps", [5e-324, 1e-300, 1e-161, 1e-8, 0.3, math.pi / 4, HALF_PI - 1e-8, HALF_PI]
)
def test_filter_matches_closed_form_at_full_precision(eps):
    a, a_bar = build_filter(CatParams(3, eps))
    ref_a, ref_a_bar = _reference_filter(eps)
    for got, ref in ((a, ref_a), (a_bar, ref_a_bar)):
        assert not got.imag.any()
        for i in range(2):
            for j in range(2):
                assert abs(mp.mpf(float(got[i, j].real)) - ref[i, j]) <= 1e-15


def success_probability(params: CatParams, j: int, any_prior_success: bool) -> float:
    """Probability of the A outcome in the j-th measurement (1-based).

    Before the first success: p = (1 - c) / (1 + c^(N-j+1)).
    After any success the remaining parties are iid: p = 1 - c.
    """
    j = _check_int(j, "measurement index")
    if j > params.N:
        raise ValueError(f"measurement index {j} out of range 1..{params.N}")
    omc = params.one_minus_c
    if any_prior_success:
        return omc
    remaining = params.N - j + 1
    return omc / (1.0 + math.exp(remaining * params.log_c))


def _reference_neg_log_survival(params: CatParams) -> np.ndarray:
    """-ln survival of steps 1..j, j = 1..N, as a cumulative sum of per-step hazards.

    The reference for distillation._first_success, which uses the
    telescoped closed form instead of this O(N) table.
    """
    n, c, omc = params.N, params.c_eps, params.one_minus_c
    # c^m for m = N..1 parties remaining at steps j = 1..N
    c_m = np.exp(np.arange(n, 0.0, -1.0) * params.log_c)
    if c >= 0.5:
        # -ln(1 - p_before); p_before <= 1 - c <= 1/2, where log1p keeps precision
        neg_log_stay = -np.log1p(-omc / (1.0 + c_m))
    else:
        # 1 - p_before = (c + c^m) / (1 + c^m), formed without cancellation:
        # p_before itself rounds to 1 next to eps = pi/2
        neg_log_stay = -np.log((c + c_m) / (1.0 + c_m))
    return np.cumsum(neg_log_stay, out=neg_log_stay)


def _reference_simulate(params: CatParams, trials: int, seed: int) -> np.ndarray:
    """Dense counts from the table sampler, with the draws of simulate_protocol.

    Each trial takes its uniform, then, after a success, its binomial's
    uniforms, from one random.Random(seed).
    """
    n, omc = params.N, params.one_minus_c
    neg_log_surv = _reference_neg_log_survival(params)
    rng = random.Random(seed)
    counts = np.zeros(n + 1, dtype=np.int64)
    for _ in range(trials):
        e = -math.log(1.0 - rng.random())
        first = int(np.searchsorted(neg_log_surv, e, side="right"))
        counts[0 if first == n else 1 + _binomial(rng, n - 1 - first, omc)] += 1
    return counts


def test_success_probability_values():
    p = CatParams(2, PI_3)
    # (1 - c) / (1 + c^2) with c = 1/2
    assert success_probability(p, 1, False) == pytest.approx(0.4, abs=1e-15)
    assert success_probability(p, 2, False) == pytest.approx(0.5 / 1.5, abs=1e-15)
    assert success_probability(p, 1, True) == pytest.approx(0.5, abs=1e-15)
    hp = CatParams(7, HALF_PI)
    for j in range(1, 8):
        assert success_probability(hp, j, False) == pytest.approx(1.0, abs=1e-12)
    for eps in EPS_GRID:
        q = CatParams(4, eps)
        assert success_probability(q, 3, True) == pytest.approx(
            q.one_minus_c, abs=1e-15
        )


def test_success_probability_range_checks():
    p = CatParams(3, 0.5)
    with pytest.raises(ValueError):
        success_probability(p, 0, False)
    with pytest.raises(ValueError):
        success_probability(p, 4, False)


def _dense_q(dist) -> np.ndarray:
    # q_0..q_N as an array, read from the distribution's sparse q
    return np.fromiter(dist.q, float, dist.params.N + 1)


def _q_at(dist, k: int) -> float:
    # q_k read from the stored entries of the sparse q; 0.0 outside them
    return dict(zip(dist.q.indices, dist.q.values)).get(k, 0.0)


def _counts(res) -> np.ndarray:
    # the Monte Carlo counts over 0..N, from the observed outcomes
    return np.bincount(res.outcomes, weights=res.tallies, minlength=res.params.N + 1)


def test_outcome_distribution_hand_case():
    dist = outcome_distribution(CatParams(2, PI_3))
    np.testing.assert_allclose(list(dist.q), [0.4, 0.4, 0.2], atol=1e-15)
    assert abs(math.fsum(dist.q) - 1.0) < 1e-15


def test_outcome_distribution_trivial_cases():
    q = _dense_q(outcome_distribution(CatParams(6, HALF_PI)))
    assert q[6] == pytest.approx(1.0, abs=1e-12)
    assert q[:6].sum() < 1e-12
    assert list(outcome_distribution(CatParams(6, 0.0)).q) == [1.0] + [0.0] * 6


@pytest.mark.parametrize(
    "n,eps",
    [(2, PI_3), (8, 0.5), (40, 0.2), (10**4, 0.01), (10**6, 1e-3), (10**6, math.pi / 4)],
)
def test_outcome_distribution_sums_to_one(n, eps):
    dist = outcome_distribution(CatParams(n, eps))
    q = _dense_q(dist)
    assert np.all(q >= 0.0)
    assert abs(q.sum() - 1.0) < 1e-12
    # same conclusion through log-sum-exp over the stored log-domain window
    window = np.array(dist.log_q_window)
    finite = window[np.isfinite(window)]
    peak = finite.max()
    lse = peak + math.log(np.exp(finite - peak).sum())
    assert abs(math.exp(lse) - 1.0) < 1e-12


WINDOW_GRID = [
    (n, eps)
    for n in (1, 2, 8, 10**3, 10**6)
    for eps in (0.0, 5e-324, 1e-3, 1 / math.sqrt(n), math.pi / 4, HALF_PI - 1e-8, HALF_PI)
]


@pytest.mark.parametrize("n,eps", WINDOW_GRID)
def test_window_matches_the_dense_pmf(n, eps):
    # the stored window against the same pmf evaluated over k = 0..N
    p = CatParams(n, eps)
    dist = outcome_distribution(p)
    dense_log_q = np.array(distillation._log_q(p, 0, n))
    dense_q = np.array([math.exp(v) for v in dense_log_q])
    assert list(dist.to_payload()["q"]) == list(dist.q)
    assert len(dist.q) == n + 1
    assert list(dist.q) == dense_q.tolist()
    nonzero = np.flatnonzero(dense_q)
    assert dist.lo <= nonzero[0]
    assert nonzero[-1] < dist.lo + len(dist.log_q_window)
    if p.one_minus_c > 0.0:
        assert np.all(np.isfinite(dense_log_q))
    else:
        # 1 - c rounds to 0: q_k = 0 exactly for k >= 1
        assert dense_log_q[0] == 0.0 and np.all(dense_log_q[1:] == -np.inf)
    # the window ends against a scan of every k: the first and the last k
    # whose ln q_k clears the floor ((0, 0) at eps = 0)
    clears = np.flatnonzero(dense_log_q >= distillation._LOG_Q_FLOOR)
    assert (dist.lo, dist.lo + len(dist.log_q_window) - 1) == (clears[0], clears[-1])


SPARSE_Q_GRID = [
    (n, eps)
    for n in (1, 2, 10, 10**3, 10**6, 10**7, 2**27)
    for eps in (0.0, 5e-324, 1e-300, 1e-3, 1 / math.sqrt(n), math.pi / 4,
                math.nextafter(HALF_PI, 0.0), HALF_PI)
]


@pytest.mark.parametrize("n,eps", SPARSE_Q_GRID)
def test_sparse_q_sums_to_one_with_the_closed_form_mean(n, eps):
    # read through dist.q alone.  It is +0.0 outside its stored entries, so
    # sums over those entries are sums over all N + 1, without iterating
    # 2^27 zeros; at small N the full iteration is checked to agree
    p = CatParams(n, eps)
    q = outcome_distribution(p).q
    assert len(q) == n + 1
    assert abs(math.fsum(q.values) - 1.0) <= 1e-12
    mean = math.fsum(map(operator.mul, q.indices, q.values))
    expected = expected_n(p)
    assert abs(mean - expected) <= 1e-10 * expected
    if n <= 10**3:
        assert math.fsum(q) == math.fsum(q.values)
        assert math.fsum(k * v for k, v in enumerate(q)) == mean


def _mp_outcome(n, eps, k):
    """(q_k, ln q_k) of the protocol in 40-digit arithmetic from the double eps."""
    with mp.workdps(40):
        e = mp.mpf(eps)
        c, omc = mp.cos(e), 2 * mp.sin(e / 2) ** 2
        norm = 1 + c**n
        if k == 0:
            q = 2 * c**n / norm
        else:
            q = mp.binomial(n, k) * omc**k * c ** (n - k) / norm
        return q, mp.log(q)


@pytest.mark.parametrize(
    "n,eps",
    [(n, eps) for n in (10, 10**3, 10**6, 10**7) for eps in (1 / math.sqrt(n), math.pi / 4)],
)
def test_outcome_distribution_matches_mpmath(n, eps):
    # the saddle-point pmf against 40-digit binomials at k = 0, 1, 2, the
    # mode, the mode + 3 sigma, N/2 and N; ln q_k also in the tails, where
    # q_k underflows and the window holds no entry
    p = CatParams(n, eps)
    dist = outcome_distribution(p)
    mode = math.floor((n + 1) * p.one_minus_c)
    sigma = math.sqrt(n * p.one_minus_c * p.c_eps)
    for k in sorted({0, 1, 2, mode, min(n, mode + math.ceil(3 * sigma)), n // 2, n}):
        q_ref, log_ref = _mp_outcome(n, eps, k)
        ln_q = distillation._log_q(p, k, k)[0]
        assert abs(ln_q - log_ref) <= 1e-12 * max(1.0, abs(log_ref)), k
        if q_ref >= sys.float_info.min:
            assert abs(_q_at(dist, k) - q_ref) <= 1e-12 * q_ref, k


def test_outcome_distribution_top_entry_near_half_pi():
    # q_N = (1 - c)^N / (1 + c^N) with c ~ 1e-5: N ln(1 - c) must come from
    # log1p(-c); the log of the rounded 1 - c is off by ~N ulp, 1e-10 here
    n, eps = 10**6, HALF_PI - 1e-5
    q_ref, _ = _mp_outcome(n, eps, n)
    assert abs(_q_at(outcome_distribution(CatParams(n, eps)), n) - q_ref) <= 1e-12 * q_ref


def _mp_stirlerr(n):
    with mp.workdps(40):
        return mp.loggamma(n + 1) - (n + mp.mpf(1) / 2) * mp.log(n) + n - mp.log(2 * mp.pi) / 2


def test_stirlerr_matches_loggamma():
    # the table covers 1..15 and the 5-term series the rest; the first
    # omitted series term is 1.1e-16 at n = 16 (stirlerr diverges at n = 0)
    for n in list(range(1, 21)) + [10**6]:
        assert abs(_stirlerr(n) - _mp_stirlerr(n)) <= 2e-16, n


@pytest.mark.parametrize("m", [1000.0, 0.9, 5e-320])
def test_bd0_matches_mpmath_on_both_branches(m):
    # the near series holds for 9m/11 < x < 11m/9, i.e. |x - m| < 0.1 (x + m);
    # for subnormal m, x / m overflows and the far branch must not use it
    xs = [1.0, 2.0, m * 0.5, m * 9 / 11 * (1 - 1e-9), m * 9 / 11 * (1 + 1e-9), m, m + 1e-3,
          m * 11 / 9 * (1 - 1e-9), m * 11 / 9 * (1 + 1e-9), m * 5.0]
    for x in [x for x in xs if x >= 1.0]:
        value = _bd0(x, m)
        with mp.workdps(40):
            ref = mp.mpf(x) * mp.log(mp.mpf(x) / mp.mpf(m)) + mp.mpf(m) - mp.mpf(x)
        assert abs(value - ref) <= 1e-14 * ref, x


@pytest.mark.parametrize(
    "n,eps", [(2, PI_3), (8, 0.5), (40, 0.2), (10**4, 0.01), (10**6, 1e-3)]
)
def test_expected_n_matches_distribution_mean(n, eps):
    p = CatParams(n, eps)
    dist = outcome_distribution(p)
    mean = float(np.arange(n + 1) @ _dense_q(dist))
    assert mean == pytest.approx(expected_n(p), rel=1e-10)


def test_expected_n_values():
    assert expected_n(CatParams(9, HALF_PI)) == pytest.approx(9.0, rel=1e-12)
    assert expected_n(CatParams(2, PI_3)) == pytest.approx(0.8, abs=1e-15)
    # exact mean at the (N=1e6, eps=1e-3) operating point, frozen from a
    # 60-digit evaluation; the N eps^2 / 2 = 0.5 asymptote needs
    # N eps^2 >> 1 and is 38% off here because c^N = exp(-1/2)
    assert expected_n(CatParams(10**6, 1e-3)) == pytest.approx(
        0.3112296494569457, rel=1e-13
    )
    # deep in the asymptotic regime the Nε²/2 form does hold
    deep = expected_n(CatParams(10**8, 1e-3))
    assert deep == pytest.approx(10**8 * 1e-6 / 2, rel=1e-3)


def test_simulation_deterministic_and_reproducible():
    p = CatParams(8, 0.5)
    a = simulate_protocol(p, 2000, seed=42)
    b = simulate_protocol(p, 2000, seed=42)
    c = simulate_protocol(p, 2000, seed=43)
    assert np.array_equal(_counts(a), _counts(b))
    assert not np.array_equal(_counts(a), _counts(c))
    assert sum(a.tallies) == 2000


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**64])
def test_simulation_rejects_bad_seed(seed):
    # a seed that is not an unsigned 64-bit integer is refused, never
    # truncated or cast into the one McResult.seed then records
    bound = r"^seed must be an integer in \[0, 18446744073709551615\], got "
    with pytest.raises(ValueError, match=bound):
        simulate_protocol(CatParams(8, 0.5), 10, seed)


def test_simulation_accepts_seed_range_ends():
    p = CatParams(8, 0.5)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        res = simulate_protocol(p, 10, seed)
        assert res.seed == int(seed) and type(res.seed) is int


def test_results_compare_and_hash_by_value():
    # the fields are tuples of numbers, so equal inputs give equal records
    p = CatParams(8, 0.5)
    for make, other in (
        (lambda: outcome_distribution(p), outcome_distribution(CatParams(8, 0.6))),
        (lambda: simulate_protocol(p, 100, seed=3), simulate_protocol(p, 100, seed=4)),
    ):
        a, b = make(), make()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
        # slotted like every other record: no attribute can be added
        with pytest.raises(AttributeError):
            setattr(a, "other", 1)


def test_simulation_half_pi_always_succeeds():
    res = simulate_protocol(CatParams(5, HALF_PI), 500, seed=1)
    assert (res.outcomes, res.tallies) == ((5,), (500,))


def test_simulation_product_state_never_succeeds():
    res = simulate_protocol(CatParams(5, 0.0), 500, seed=1)
    assert (res.outcomes, res.tallies) == ((0,), (500,))


def test_simulation_matches_exact_distribution():
    p = CatParams(2, PI_3)
    trials = 10**5
    res = simulate_protocol(p, trials, seed=12345)
    exact = _dense_q(outcome_distribution(p))
    counts = _counts(res)
    se = np.sqrt(exact * (1 - exact) / trials)
    assert np.all(np.abs(counts / trials - exact) <= 4.0 * se)
    # chi-squared goodness of fit at significance 1e-3 (2 dof); the 2-dof
    # survival function is exp(-x/2), so the threshold is -2 ln(1e-3)
    stat = float((((counts - exact * trials) ** 2) / (exact * trials)).sum())
    assert stat < -2.0 * math.log(1e-3)


def test_simulation_mean_within_clt_bound():
    p = CatParams(8, 0.5)
    trials = 10**4
    res = simulate_protocol(p, trials, seed=12345)
    n_vals = np.arange(9)
    exact = _dense_q(outcome_distribution(p))
    mean_exact = float(n_vals @ exact)
    var_exact = float((n_vals**2) @ exact) - mean_exact**2
    mean_emp = float(n_vals @ (_counts(res) / trials))
    assert abs(mean_emp - mean_exact) <= 4.0 * math.sqrt(var_exact / trials)


def _chi2_sf(x: float, dof: int) -> float:
    # closed-form chi-square survival: exp(-x/2) sum_{i < dof/2} (x/2)^i / i!
    # for even dof, erfc(sqrt(x/2)) + exp(-x/2) sum_{i=1}^{(dof-1)/2}
    # (x/2)^(i-1/2) / Gamma(i + 1/2) for odd dof
    h = x / 2.0
    if dof % 2 == 0:
        return math.exp(-h) * sum(h**i / math.factorial(i) for i in range(dof // 2))
    tail = sum(h ** (i - 0.5) / math.gamma(i + 0.5) for i in range(1, (dof + 1) // 2))
    return math.erfc(math.sqrt(h)) + math.exp(-h) * tail


def test_chi2_sf_closed_form():
    for dof in (1, 2, 5, 6):
        for x in (0.5, 3.3, 20.0):
            with mp.workdps(30):
                ref = float(mp.gammainc(dof / 2, x / 2, mp.inf, regularized=True))
            assert _chi2_sf(x, dof) == pytest.approx(ref, rel=1e-12)
    # -2 ln(1e-3) is the 2-dof threshold at significance 1e-3
    assert _chi2_sf(-2.0 * math.log(1e-3), 2) == pytest.approx(1e-3, rel=1e-12)


def test_simulation_headline_scale_pooled_chi_square():
    # (N=1e6, eps=1e-3): 1e11 per-party uniforms for a per-party sampler.
    # The bins from the first with expected count < 5 on are pooled into one
    # tail bin, which starts one bin lower if it would hold < 5 itself
    p = CatParams(10**6, 1e-3)
    trials = 10**5
    start = time.perf_counter()
    res = simulate_protocol(p, trials, seed=2024)
    elapsed = time.perf_counter() - start
    expected = _dense_q(outcome_distribution(p)) * trials
    counts = _counts(res)
    cut = int(np.argmax(expected < 5.0))
    cut -= int(expected[cut:].sum() < 5.0)
    exp_bins = np.append(expected[:cut], expected[cut:].sum())
    obs_bins = np.append(counts[:cut], counts[cut:].sum())
    stat = float((((obs_bins - exp_bins) ** 2) / exp_bins).sum())
    assert sum(res.tallies) == trials
    assert np.all(exp_bins >= 5.0)
    assert _chi2_sf(stat, exp_bins.size - 1) > 1e-3
    assert elapsed < 10.0


@pytest.mark.parametrize(
    "n,p",
    [
        (50, 0.01),  # mean 0.5: inversion
        (990, 0.01),  # mean 9.9: the longest inversion walk
        (1010, 0.01),  # mean 10.1: BTRS
        (21, 0.5),  # mean 10.5 at p = 1/2: BTRS with the narrowest hat
        (40000, 0.25),  # mean 1e4
        (100, 0.7),  # n - Binomial(n, 0.3), BTRS
    ],
)
def test_binomial_matches_the_exact_pmf(n, p):
    # chi-square of 20000 draws against C(n, k) p^k (1-p)^(n-k), with
    # C(n, k) from math.comb and the exact step C(n, k + 1) = C(n, k) (n - k)
    # / (k + 1), over consecutive runs of k merged until each expects 200
    # draws; the k more than 8 sigma from the mean join the end bins
    trials = 20000
    rng = random.Random(n)
    counts = Counter(_binomial(rng, n, p) for _ in range(trials))
    sd = math.sqrt(n * p * (1 - p))
    lo, hi = max(0, math.floor(n * p - 8 * sd)), min(n, math.ceil(n * p + 8 * sd))
    obs_bins, exp_bins, obs, exp = [], [], sum(counts[k] for k in range(lo)), 0.0
    comb = math.comb(n, lo)
    for k in range(lo, hi + 1):
        log_pmf = math.log(comb) + k * math.log(p) + (n - k) * math.log1p(-p)
        comb = comb * (n - k) // (k + 1)
        obs, exp = obs + counts[k], exp + trials * math.exp(log_pmf)
        if exp >= trials / 100:
            obs_bins.append(obs)
            exp_bins.append(exp)
            obs, exp = 0, 0.0
    obs_bins[-1] += obs + sum(counts[k] for k in range(hi + 1, n + 1))
    exp_bins[-1] += exp
    assert sum(obs_bins) == trials and len(exp_bins) >= 4
    stat = sum((o - e) ** 2 / e for o, e in zip(obs_bins, exp_bins))
    assert _chi2_sf(stat, len(exp_bins) - 1) > 1e-3


@pytest.mark.parametrize("n,p,value", [(0, 0.3, 0), (100, 0.0, 0), (7, 1.0, 7)])
def test_binomial_degenerate_cases(n, p, value):
    rng = random.Random(5)
    assert {_binomial(rng, n, p) for _ in range(1000)} == {value}


@pytest.mark.parametrize("n", [1, 2, 10**6])
@pytest.mark.parametrize("eps", [0.0, 5e-324, HALF_PI])
def test_simulation_domain_edges(n, eps):
    # p_before rounds to 1 at eps = pi/2 and to 0 at the two small angles
    res = simulate_protocol(CatParams(n, eps), 1000, seed=9)
    assert (res.outcomes, res.tallies) == ((n if eps == HALF_PI else 0,), (1000,))


def test_distribution_size_cap(monkeypatch):
    assert distillation.MAX_DISTRIBUTION_N >= 10**7
    monkeypatch.setattr(distillation, "MAX_DISTRIBUTION_N", 10)
    with pytest.raises(ValueError, match=r"^N must be an integer in \[1, 10\], got 11$"):
        outcome_distribution(CatParams(11, 0.5))
    with pytest.raises(ValueError, match=r"^N must be an integer in \[1, 10\], got 11$"):
        simulate_protocol(CatParams(11, 0.5), 5, seed=0)
    assert len(outcome_distribution(CatParams(10, 0.5)).q) == 11
    assert sum(simulate_protocol(CatParams(10, 0.5), 5, seed=0).tallies) == 5



def test_trials_cap(monkeypatch):
    # the cap bounds the run time; the bound itself is accepted
    assert distillation.MAX_TRIALS >= 2**23
    monkeypatch.setattr(distillation, "MAX_TRIALS", 5)
    with pytest.raises(ValueError, match=r"^trials must be an integer in \[1, 5\], got 6$"):
        simulate_protocol(CatParams(10, 0.5), 6, seed=0)
    assert sum(simulate_protocol(CatParams(10, 0.5), 5, seed=0).tallies) == 5


SAMPLER_GRID = [
    (n, eps)
    for n in (1, 2, 50, 10**3, 10**6)
    for eps in (5e-324, 1e-155, 1e-150, 1e-8, 1e-3, 0.05, math.pi / 4, 1.5, HALF_PI)
]


@pytest.mark.parametrize("n,eps", SAMPLER_GRID)
def test_first_success_matches_the_hazard_table(n, eps):
    # the closed-form inverse of the survival against searchsorted on the
    # cumulative per-step hazards, on the same uniforms, U = 1 included
    p = CatParams(n, eps)
    first = _first_success(p)
    table = _reference_neg_log_survival(p)
    e = -np.log(np.append(1.0 - np.random.default_rng(n).random(4096), 1.0))
    assert [first(v) for v in e.tolist()] == np.searchsorted(table, e, side="right").tolist()
    # the largest e, 53 ln 2 from U = 2^-53, ties with -ln S(106) =
    # 106 ln sqrt(2) at eps = pi/4 to within rounding, so there the two may
    # differ by one step
    top = 53 * math.log(2.0)
    assert abs(first(top) - int(np.searchsorted(table, top, "right"))) <= 1


@pytest.mark.parametrize(
    "n,eps,trials",
    [(8, 0.5, 3000), (50, 1.5, 500), (10**3, 0.05, 2000), (10**6, 1e-3, 200), (10**6, 1e-8, 200)],
)
def test_simulation_matches_the_table_sampler(n, eps, trials):
    # same seed, same draw order: the same counts as the O(N)-table sampler
    p = CatParams(n, eps)
    res = simulate_protocol(p, trials, seed=31)
    np.testing.assert_array_equal(_counts(res), _reference_simulate(p, trials, 31))
    assert all(t > 0 for t in res.tallies) and np.all(np.diff(res.outcomes) > 0)


def test_simulation_validation():
    with pytest.raises(ValueError):
        simulate_protocol(CatParams(3, 0.5), 0, seed=0)


# The distillation mean and its entropy bounds are fields of the
# effective-size report, their one record.


def test_distillation_bound_values():
    n = 12
    b = build_effective_size_report(CatParams(n, HALF_PI))
    assert b.n_distill_upper_exact == pytest.approx(float(n), rel=1e-9)
    assert b.n_distill_mean == pytest.approx(float(n), rel=1e-9)
    b0 = build_effective_size_report(CatParams(n, 0.0))
    assert b0.n_distill_upper_exact == 0.0
    assert b0.n_distill_upper_asymptotic == 0.0
    assert b0.n_distill_mean == 0.0


def test_distillation_bound_headline_regime():
    # all three frozen from 60-digit evaluations at (N=1e7, eps=1e-3)
    b = build_effective_size_report(CatParams(10**7, 1e-3))
    assert b.n_distill_upper_exact == pytest.approx(57.7014063306168, rel=1e-12)
    assert b.n_distill_upper_asymptotic == pytest.approx(49.82892142331043, rel=1e-12)
    assert b.n_distill_mean == pytest.approx(4.96653535920084, rel=1e-12)
    assert b.n_distill_mean <= b.n_distill_upper_exact
    # mean-to-upper-bound ratio approaches 1/(-log2 eps); frozen factor
    ratio = b.n_distill_mean / b.n_distill_upper_exact
    assert ratio * (-math.log2(1e-3)) == pytest.approx(0.8577853327931743, rel=1e-10)


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.2])
@pytest.mark.parametrize("n_eps_sq", [10.0, 25.0, 100.0])
def test_lower_bound_below_exact_bound_in_regime(eps, n_eps_sq):
    n = int(math.ceil(n_eps_sq / eps**2))
    b = build_effective_size_report(CatParams(n, eps))
    assert b.n_distill_mean <= b.n_distill_upper_exact
    assert 0.0 <= b.n_distill_upper_exact <= n


def test_payload_schemas():
    p = CatParams(2, PI_3)
    exact = outcome_distribution(p).to_payload()
    assert list(exact.keys()) == ["N", "epsilon", "q", "source", "trials", "seed"]
    assert exact["source"] == "exact"
    assert exact["trials"] is None and exact["seed"] is None
    mc = simulate_protocol(p, 100, seed=5).to_payload()
    assert list(mc.keys()) == ["N", "epsilon", "q", "source", "trials", "seed"]
    assert mc["source"] == "mc"
    assert mc["trials"] == 100 and mc["seed"] == 5
    # q is a SparseFloats, which the package's JSON writer writes as a list
    mc_freq = _counts(simulate_protocol(p, 100, seed=5)) / 100
    refs = (list(outcome_distribution(p).q), mc_freq.tolist())
    for payload, ref in zip((exact, mc), refs):
        assert json.loads(dumps_json(payload)) == {**payload, "q": ref}
