"""Single-copy GHZ distillation: filter, outcome statistics, Monte Carlo, bounds.

Each party applies the local two-outcome filtering measurement {A, Abar}
with

    A = (sqrt(1 - c) / s) [[s, -c], [0, 1]],   c = cos(eps), s = sin(eps),

built from the biorthonormal basis of {|phi1>, |phi2>}; Abar is the
positive square root of I - A^dag A, which has rank one.  The n parties
with a successful (A) outcome end up sharing an ideal n-qubit GHZ state.

The number of successes n is distributed as

    q_n = (1 - c)^n c^(N-n) C(N, n) / (1 + c^N)   for n >= 1,
    q_0 = 2 c^N / (1 + c^N),

with mean <n> = (1 - c) N / (1 + c^N).  The asymptotic multi-copy yield is
bounded above by N S1 in terms of the single-qubit entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CatParams, _check_positive_int, entropy_s1

__all__ = [
    "FilterMeasurement",
    "OutcomeDistribution",
    "McResult",
    "DistillationBound",
    "build_filter",
    "success_probability",
    "outcome_distribution",
    "expected_n",
    "simulate_protocol",
    "distillation_bound",
]


@dataclass(frozen=True)
class FilterMeasurement:
    """Two-outcome local measurement {A, A_bar} with A^dag A + A_bar^dag A_bar = I.

    k_sq is the success-branch scale: <phi1|A^dag A|phi1> = <phi2|A^dag A|phi2>
    = k^2 = 1 - cos(eps).
    """

    A: np.ndarray
    A_bar: np.ndarray
    k_sq: float


def _sqrtm_psd_2x2(m: np.ndarray) -> np.ndarray:
    # positive square root of a 2x2 PSD Hermitian matrix:
    # sqrt(M) = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))
    # (Cayley-Hamilton); the rank-one case det = 0 reduces to M / sqrt(tr M).
    sdet = math.sqrt(max(float(np.linalg.det(m).real), 0.0))
    denom_sq = float(np.trace(m).real) + 2.0 * sdet
    if denom_sq <= 0.0:
        return np.zeros((2, 2), dtype=complex)
    return (m + sdet * np.eye(2)) / math.sqrt(denom_sq)


def build_filter(params: CatParams) -> FilterMeasurement:
    """Construct the filtering measurement for 0 < eps <= pi/2.

    eps = 0 is rejected: |phi2> = |phi1| and the biorthonormal basis does
    not exist.
    """
    if params.epsilon <= 0.0:
        raise ValueError("build_filter requires eps > 0 (linearly independent branches)")
    c, s = params.c_eps, params.s_eps
    k = math.sqrt(params.one_minus_c)
    a = (k / s) * np.array([[s, -c], [0.0, 1.0]], dtype=complex)
    complement = np.eye(2, dtype=complex) - a.conj().T @ a
    return FilterMeasurement(A=a, A_bar=_sqrtm_psd_2x2(complement), k_sq=k * k)


# Largest N for which outcome_distribution and simulate_protocol build their
# O(N) arrays.  Measured peaks: 40 bytes per N for outcome_distribution and
# 25 for simulate_protocol (tracemalloc, N = 1e6 and 4e6), and about 129 for
# the whole distill-sim process, mostly its two (N+1)-float payload lists (max
# RSS 165 MiB at N = 1e6, 533 MiB at 4e6).  2^24 caps distill-sim near 2 GiB.
MAX_DISTRIBUTION_N = 2**24
# trials per block of the Monte Carlo sampler
_MC_BLOCK = 1 << 16


def _check_distribution_size(params: CatParams) -> int:
    # refuse before allocating: the arrays grow linearly in N with no cap
    if params.N > MAX_DISTRIBUTION_N:
        raise ValueError(
            f"N = {params.N} exceeds {MAX_DISTRIBUTION_N}, the largest N for which "
            "the O(N) outcome distribution is built"
        )
    return params.N


def success_probability(params: CatParams, j: int, any_prior_success: bool) -> float:
    """Probability of the A outcome in the j-th measurement (1-based).

    Before the first success: p = (1 - c) / (1 + c^(N-j+1)).
    After any success the remaining parties are iid: p = 1 - c.
    """
    j = _check_positive_int(j, "measurement index")
    if j > params.N:
        raise ValueError(f"measurement index {j} out of range 1..{params.N}")
    omc = params.one_minus_c
    if any_prior_success:
        return omc
    remaining = params.N - j + 1
    return omc / (1.0 + math.exp(remaining * params.log_c))


def _q_payload(n, epsilon, q, source, trials, seed) -> dict:
    # payload shared by the exact and the Monte Carlo distribution
    q = q.tolist()
    return {"N": n, "epsilon": epsilon, "q": q, "source": source, "trials": trials, "seed": seed}


@dataclass(frozen=True)
class OutcomeDistribution:
    """Distribution q_0..q_N of the number of distilled GHZ parties.

    q holds linear-domain probabilities (deep-tail entries underflow to 0);
    log_q retains the tail in log form for diagnostics.
    """

    N: int
    epsilon: float
    q: np.ndarray
    log_q: np.ndarray

    def to_payload(self) -> dict:
        return _q_payload(self.N, self.epsilon, self.q, "exact", None, None)


# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 1..15, from
# mp.loggamma(n + 1) - (n + 1/2) mp.log(n) + n - mp.log(2 mp.pi) / 2 at
# mp.dps = 40, printed with format(float(v), ".17g")
_STIRLERR_SMALL = np.array([
    0.081061466795327261, 0.041340695955409297, 0.027677925684998338,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.0092554621827127329,
    0.0083305634333628708, 0.0075736754879518406, 0.0069428401072095299,
    0.0064089941880042071, 0.0059513701127588475, 0.0055547335519628011,
])
_LN_2PI = math.log(2.0 * math.pi)
# 1/3, 1/5, ..., 1/17: the near-branch series of bd0 in w = v^2 < 0.01;
# the first omitted term is below 1e-18 of the result
_BD0_COEFFS = tuple(1.0 / (2 * j + 1) for j in range(1, 9))


def _stirlerr(n) -> np.ndarray:
    """Stirling-series error ln n! - ln(sqrt(2 pi n) (n/e)^n) for integers n >= 1.

    Tabulated for n <= 15; above that the 5-term series
    1/(12n) - 1/(360n^3) + 1/(1260n^5) - 1/(1680n^7) + 1/(1188n^9),
    whose first omitted term is below 1.2e-16 at n = 16.
    """
    n = np.asarray(n, dtype=float)
    inv_sq = 1.0 / (n * n)
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv_sq / 1188) * inv_sq)
                     * inv_sq) * inv_sq) / n
    small = n <= 15
    out[small] = _STIRLERR_SMALL[n[small].astype(np.intp) - 1]
    return out


def _bd0(x, m: float) -> np.ndarray:
    """Deviance term x ln(x/m) + m - x >= 0 for x >= 1 and m > 0 (Loader 2000).

    Near x = m, where |x - m| < 0.1 (x + m), the direct form cancels; there
    it is (x - m) v + 2 x sum_j v^(2j+1)/(2j+1) with v = (x - m)/(x + m).
    """
    x = np.asarray(x, dtype=float)
    # x / m overflows for subnormal m; for m < 1 <= x the difference of
    # logs has no cancellation
    out = np.log(x / m) if m >= 1.0 else np.log(x) - math.log(m)
    out *= x
    out += m
    out -= x
    # |x - m| < 0.1 (x + m) is 9m/11 < x < 11m/9, without float temporaries
    near = (x > m * (9 / 11)) & (x < m * (11 / 9))
    if near.any():
        xn = x[near]
        d = xn - m
        v = d / (xn + m)
        w = v * v
        series = np.full_like(w, _BD0_COEFFS[-1])
        for coeff in _BD0_COEFFS[-2::-1]:
            series *= w
            series += coeff
        out[near] = d * v + 2.0 * xn * v * w * series
    return out


def _log_binom_pmf(n: int, p: float, q: float, log_p: float, log_q: float) -> np.ndarray:
    """ln of the binomial pmf C(n, k) p^k q^(n-k) for k = 0..n.

    Loader's saddle-point form ("Fast and Accurate Computation of Binomial
    Probabilities", 2000, the algorithm behind R's dbinom):

        ln pmf(k) = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
                    - bd0(k, n p) - bd0(n-k, n q) - ln(2 pi k (n-k) / n) / 2.

    p and q = 1 - p are passed separately, with their logs, so that neither
    is formed by a cancelling difference; the endpoints are n ln q and
    n ln p.  Requires p, q > 0.  The error in ln pmf is mostly the rounding
    of p and q, times |k - n p|: 3e-13 at n = 1e7 and p = 1 - cos(pi/4),
    three sigma from the mode.
    """
    out = np.empty(n + 1)
    out[0] = n * log_q
    out[n] = n * log_p
    if n > 1:
        # k = 1..n; over its first n - 1 entries, the reversed array is n - k
        k = np.arange(1.0, n + 1)
        s = _stirlerr(k)
        inner = out[1:n]
        np.subtract(s[-1], s[:-1], out=inner)
        inner -= s[-2::-1]
        del s
        inner -= _bd0(k[:-1], n * p)
        inner -= _bd0(k[-2::-1], n * q)
        # ln(2 pi k (n-k) / n) / 2
        log_k = np.log(k)
        lf = log_k[:-1] + log_k[-2::-1]
        lf += _LN_2PI - log_k[-1]
        lf *= 0.5
        inner -= lf
    return out


def outcome_distribution(params: CatParams) -> OutcomeDistribution:
    """Exact outcome distribution over n = 0..N.

    One log-domain path: log_q = ln pmf - ln(1 + c^N), with ln pmf the
    saddle-point binomial pmf with p = 1 - c (see _log_binom_pmf), then
    log_q[0] = ln 2 + N ln c - ln(1 + c^N) and q = exp(log_q).  The
    saddle-point form keeps sum(q) = 1 to 1e-12 at N = 1e6, where a
    log-gamma assembly drifts to ~4e-10 because the absolute error of
    lgamma grows with |lgamma|; log_q stays finite in the tail where q
    underflows to 0.
    """
    _check_distribution_size(params)
    if params.one_minus_c == 0.0:
        q = np.zeros(params.N + 1)
        q[0] = 1.0
        log_q = np.full(params.N + 1, -np.inf)
        log_q[0] = 0.0
        return OutcomeDistribution(params.N, params.epsilon, q, log_q)

    c = params.c_eps
    # ln(1 - c) as CatParams.log_c takes ln c: log1p where its argument is small
    log_p = math.log1p(-c) if c < 0.5 else math.log(params.one_minus_c)
    log_q = _log_binom_pmf(params.N, params.one_minus_c, c, log_p, params.log_c)
    log_norm = math.log1p(math.exp(params.log_cN))
    log_q -= log_norm
    log_q[0] = math.log(2.0) + params.log_cN - log_norm
    return OutcomeDistribution(params.N, params.epsilon, np.exp(log_q), log_q)


def expected_n(params: CatParams) -> float:
    """Mean number of distilled GHZ parties, (1 - c) N / (1 + c^N)."""
    return params.one_minus_c * params.N / (1.0 + math.exp(params.log_cN))


@dataclass(frozen=True)
class McResult:
    """Empirical outcome counts from a seeded protocol simulation."""

    N: int
    epsilon: float
    counts: np.ndarray
    trials: int
    seed: int

    @property
    def freq(self) -> np.ndarray:
        return self.counts / self.trials

    def to_payload(self) -> dict:
        return _q_payload(self.N, self.epsilon, self.freq, "mc", self.trials, self.seed)


def simulate_protocol(params: CatParams, trials: int, seed: int) -> McResult:
    """Monte Carlo simulation of the sequential measurement protocol.

    Event-driven, in O(N + trials) time and O(N + _MC_BLOCK) memory.  Until
    the first success, step j succeeds with p_before (success_probability):
    one uniform per trial picks that step j by inverse transform on the
    cumulative log survival.  The N - j later parties succeed iid with
    1 - c, so one Binomial(N - j, 1 - c) draw counts them.

    Randomness comes from the Philox generator keyed directly with the
    seed; each block of _MC_BLOCK trials draws its uniforms, then one
    binomial per trial with a success, in trial order.
    """
    trials = _check_positive_int(trials, "trials")
    n = _check_distribution_size(params)
    c, omc = params.c_eps, params.one_minus_c
    # c^m for m = N..1 parties remaining at steps j = 1..N
    c_m = np.exp(np.arange(n, 0.0, -1.0) * params.log_c)
    if c >= 0.5:
        # -ln(1 - p_before); p_before <= 1 - c <= 1/2, where log1p keeps precision
        neg_log_stay = -np.log1p(-omc / (1.0 + c_m))
    else:
        # 1 - p_before = (c + c^m) / (1 + c^m), formed without cancellation:
        # p_before itself rounds to 1 next to eps = pi/2
        neg_log_stay = -np.log((c + c_m) / (1.0 + c_m))
    del c_m
    # -ln survival of steps 1..j, non-decreasing because every term is >= 0
    neg_log_surv = np.cumsum(neg_log_stay, out=neg_log_stay)

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, trials, _MC_BLOCK):
        rows = min(_MC_BLOCK, trials - start)
        # U = 1 - random() lies in (0, 1]; the first success is the first
        # step whose survival falls below U, i.e. whose -ln survival
        # exceeds -ln U; index n means no success
        first = np.searchsorted(neg_log_surv, -np.log1p(-rng.random(rows)), side="right")
        hit = first[first < n]
        counts[0] += rows - hit.size
        counts += np.bincount(1 + rng.binomial(n - 1 - hit, omc), minlength=n + 1)
    return McResult(
        N=n, epsilon=params.epsilon, counts=counts, trials=trials, seed=int(seed)
    )


@dataclass(frozen=True)
class DistillationBound:
    """Protocol mean together with the entropy upper bounds on distillation.

    exact_bound = N * S1 bounds the mean distilled-GHZ size per copy of any
    asymptotic multi-copy protocol; asymptotic_bound is its small-eps,
    large-N-eps^2 leading form -N eps^2 log2(eps) / 2.
    """

    exact_bound: float
    asymptotic_bound: float
    lower_bound_mean: float


def distillation_bound(params: CatParams) -> DistillationBound:
    """Evaluate the distillation bounds (requires N >= 2 for the entropy)."""
    eps = params.epsilon
    asymptotic = 0.0 if eps == 0.0 else -params.N * eps * eps * math.log2(eps) / 2.0
    return DistillationBound(
        exact_bound=params.N * entropy_s1(params),
        asymptotic_bound=asymptotic,
        lower_bound_mean=expected_n(params),
    )
