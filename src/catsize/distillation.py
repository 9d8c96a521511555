"""Single-copy GHZ distillation: filter, outcome statistics, Monte Carlo, bounds.

Each party applies the local two-outcome filtering measurement {A, Abar}
with

    A = [[s, -c], [0, 1]] / sqrt(1 + c),   c = cos(eps), s = sin(eps),

built from the biorthonormal basis of {|phi1>, |phi2>}, and

    Abar = sqrt(2c / (1 + c)) u u^T,   u = (sqrt((1 + c)/2), s / sqrt(2 (1 + c))),

the positive square root of I - A^dag A, which has rank one and trace
2c / (1 + c).  The n parties with a successful (A) outcome end up sharing
an ideal n-qubit GHZ state.

The number of successes n is distributed as

    q_n = (1 - c)^n c^(N-n) C(N, n) / (1 + c^N)   for n >= 1,
    q_0 = 2 c^N / (1 + c^N),

with mean <n> = (1 - c) N / (1 + c^N).  The asymptotic multi-copy yield is
bounded above by N S1 in terms of the single-qubit entropy.  The mean and
the bound need no arrays: they are ``core.expected_n`` and N times
``core.entropy_s1``, the ``n_distill_*`` fields of the effective-size
report.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, namedtuple
from numbers import Integral

import numpy as np

from .core import CatParams, _check_positive_int
from .serialize import SparseFloats

__all__ = [
    "OutcomeDistribution",
    "McResult",
    "build_filter",
    "outcome_distribution",
    "simulate_protocol",
]


def build_filter(params: CatParams) -> tuple[np.ndarray, np.ndarray]:
    """The filtering measurement (A, A_bar) for 0 < eps <= pi/2.

    Both are the closed forms of the module docstring, in which no entry
    underflows or cancels at any eps.
    A^dag A + A_bar^dag A_bar = I, and the success outcome scales both
    branches alike: <phi1|A^dag A|phi1> = <phi2|A^dag A|phi2> = k^2 with
    k^2 = 1 - cos(eps), params.one_minus_c.  The pair is the form that
    oracle.biorthonormal_filter returns.  eps = 0 is rejected: |phi2> =
    |phi1> and the biorthonormal basis does not exist.
    """
    if params.epsilon <= 0.0:
        raise ValueError("build_filter requires eps > 0 (linearly independent branches)")
    c, s = params.c_eps, params.s_eps
    a = np.array([[s, -c], [0.0, 1.0]], dtype=complex) / math.sqrt(1.0 + c)
    u = np.array([math.sqrt((1.0 + c) / 2.0), s / math.sqrt(2.0 * (1.0 + c))], dtype=complex)
    return a, math.sqrt(2.0 * c / (1.0 + c)) * np.outer(u, u)


# Largest N accepted by outcome_distribution and simulate_protocol.  The
# pmf window, the sampler and the payloads, whose q lists are SparseFloats,
# do not grow with N (the window grows like sqrt(N)); what does is the
# output of distill-sim, two JSON lists of N + 1 entries, almost all "0, ":
# 6 bytes per N.  The cap is the largest power of two at which the output
# stays under 1 GiB: 768 MiB at 2^27.  Measured there (2-core Xeon, Python
# 3.11, stdout to /dev/null): 0.3 s and 41 MiB max RSS at eps = 1e-3, and
# 1.0 s and 84 MiB at eps = pi/4, where the window is widest.
MAX_DISTRIBUTION_N = 2**27
# Largest trials accepted by simulate_protocol.  Memory does not grow with
# the trials, the time does: 1.1 s per 2^20 trials at N = 2^27 and
# eps = 1e-3, 1.0 s at eps = pi/4 (2-core Xeon, Python 3.11).  The cap is
# the power of two nearest the 30 s of cli.MAX_CURVE_STEPS: distill-sim
# with 2^25 trials at N = 2^27, eps = 1e-3 takes 41 s and 43 MiB max RSS.
MAX_TRIALS = 2**25
# trials per block of the Monte Carlo sampler
_MC_BLOCK = 1 << 16
# log_q below this is left out of the stored window: exp underflows to 0.0
# below about -745.13, and the margin covers the rounding of the window ends
_LOG_Q_FLOOR = -750.0
_LN2 = math.log(2.0)


def _check_distribution_size(params: CatParams) -> int:
    # refuse before any work: the written distribution grows linearly in N
    if params.N > MAX_DISTRIBUTION_N:
        raise ValueError(
            f"N = {params.N} exceeds {MAX_DISTRIBUTION_N}, the largest N accepted: "
            "the written distributions take 6 bytes per N"
        )
    return params.N


def _q_payload(params: CatParams, q, source, trials, seed) -> dict:
    # payload shared by the exact and the Monte Carlo distribution
    n, eps = params.N, params.epsilon
    return {"N": n, "epsilon": eps, "q": q, "source": source, "trials": trials, "seed": seed}


class OutcomeDistribution(namedtuple("OutcomeDistribution", "params lo log_q_window")):
    """Distribution q_0..q_N of the number of distilled GHZ parties.

    Only the window k = lo..lo + len(log_q_window) - 1 is stored, as ln q_k;
    every q_k outside it underflows to 0.  q is a SparseFloats over 0..N
    that holds exp of the window, rebuilt on each access: len(q) is N + 1
    and iterating it gives every q_k, in memory of the window's size only.
    The record holds an array, so it is compared and hashed by identity.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def q(self) -> SparseFloats:
        window = range(self.lo, self.lo + self.log_q_window.size)
        return SparseFloats(self.params.N + 1, window, np.exp(self.log_q_window).tolist())

    def to_payload(self) -> dict:
        return _q_payload(self.params, self.q, "exact", None, None)


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


def _log_binom_pmf(
    n: int, p: float, q: float, log_p: float, log_q: float, lo: int, hi: int
) -> np.ndarray:
    """ln of the binomial pmf C(n, k) p^k q^(n-k) for k = lo..hi.

    Loader's saddle-point form ("Fast and Accurate Computation of Binomial
    Probabilities", 2000, the algorithm behind R's dbinom):

        ln pmf(k) = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
                    - bd0(k, n p) - bd0(n-k, n q) - ln(2 pi k (n-k) / n) / 2.

    p and q = 1 - p are passed separately, with their logs, so that neither
    is formed by a cancelling difference; the endpoints are n ln q and
    n ln p.  Requires p, q > 0 and 0 <= lo <= hi <= n.  Each entry is the
    same sequence of elementwise numpy operations whatever the window, so a
    window's entries are bit-identical to the same k of the whole pmf
    (lo = 0, hi = n).  The error in ln pmf is mostly the rounding of p and
    q, times |k - n p|: 3e-13 at n = 1e7 and p = 1 - cos(pi/4), three sigma
    from the mode.
    """
    out = np.empty(hi - lo + 1)
    if lo == 0:
        out[0] = n * log_q
    if hi == n:
        out[-1] = n * log_p
    k_lo, k_hi = max(lo, 1), min(hi, n - 1)
    if k_lo <= k_hi:
        k = np.arange(float(k_lo), k_hi + 1.0)
        n_k = n - k
        # stirlerr(n) and ln n as numpy computes them inside an array
        n_arr = np.array([float(n)])
        inner = out[k_lo - lo : k_hi - lo + 1]
        np.subtract(_stirlerr(n_arr)[0], _stirlerr(k), out=inner)
        inner -= _stirlerr(n_k)
        inner -= _bd0(k, n * p)
        inner -= _bd0(n_k, n * q)
        # ln(2 pi k (n-k) / n) / 2
        lf = np.log(k)
        lf += np.log(n_k)
        lf += _LN_2PI - np.log(n_arr)[0]
        lf *= 0.5
        inner -= lf
    return out


def _log_q(params: CatParams, lo: int, hi: int) -> np.ndarray:
    """ln q_k for k = lo..hi: ln pmf - ln(1 + c^N), and ln 2 + N ln c - ln(1 + c^N) at k = 0."""
    if params.one_minus_c == 0.0:
        # eps = 0 (or so small that 1 - c rounds to 0): q_0 = 1
        out = np.full(hi - lo + 1, -np.inf)
        if lo == 0:
            out[0] = 0.0
        return out
    c = params.c_eps
    # ln(1 - c) as CatParams.log_c takes ln c: log1p where its argument is small
    log_p = math.log1p(-c) if c < 0.5 else math.log(params.one_minus_c)
    log_q = _log_binom_pmf(params.N, params.one_minus_c, c, log_p, params.log_c, lo, hi)
    log_norm = math.log1p(math.exp(params.log_cN))
    log_q -= log_norm
    if lo == 0:
        log_q[0] = _LN2 + params.log_cN - log_norm
    return log_q


def _window(params: CatParams) -> tuple[int, int]:
    # the k range where log_q >= _LOG_Q_FLOOR.  ln pmf is concave in k, so
    # it rises to the mode and falls after it, and a bisection on each side
    # finds the ends.  q_0 carries an extra factor 2; every q_k from k = 1
    # to the mode is at least q_0 / 2, so when q_0 clears the floor the
    # window simply extends to 0
    n = params.N
    if params.one_minus_c == 0.0:
        return 0, 0

    def clears(k: int) -> bool:
        return bool(_log_q(params, k, k)[0] >= _LOG_Q_FLOOR)

    mode = min(max(math.floor((n + 1) * params.one_minus_c), 1), n)
    lo = 1 + bisect_left(range(1, mode), True, key=clears)
    hi = n - bisect_left(range(n, mode, -1), True, key=clears)
    return (0 if clears(0) else lo), hi


def outcome_distribution(params: CatParams) -> OutcomeDistribution:
    """Exact outcome distribution over n = 0..N.

    One log-domain path: log_q = ln pmf - ln(1 + c^N), with ln pmf the
    saddle-point binomial pmf with p = 1 - c (see _log_binom_pmf), then
    log_q[0] = ln 2 + N ln c - ln(1 + c^N) and q = exp(log_q).  The
    saddle-point form keeps sum(q) = 1 to 1e-12 at N = 1e6, where a
    log-gamma assembly drifts to ~4e-10 because the absolute error of
    lgamma grows with |lgamma|.

    Only the window of k where log_q >= -750 is computed and stored; exp
    gives exactly 0.0 below about -745.  Two bisections on the concave
    ln pmf find it in O(log N) scalar evaluations, so time and memory are
    O(width + log N), not O(N).  The width grows like sqrt(N (1 - c) c):
    157 entries at N = 1e6 and eps = 1e-3 (instead of N + 1), 35080 at
    eps = pi/4, 448 at N = 2^26 and eps = 1e-3.
    """
    _check_distribution_size(params)
    lo, hi = _window(params)
    return OutcomeDistribution(params, lo, _log_q(params, lo, hi))


class McResult(namedtuple("McResult", "params outcomes tallies trials seed")):
    """Empirical outcome counts from a seeded protocol simulation at params.

    Only the outcomes that occurred are stored: outcomes[i] parties were
    distilled in tallies[i] trials, outcomes ascending.  The payload's q is
    a SparseFloats over 0..N that holds the frequencies of those outcomes,
    tallies / trials.  The record holds arrays, so it is compared and
    hashed by identity.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def to_payload(self) -> dict:
        freq = (self.tallies / self.trials).tolist()
        q = SparseFloats(self.params.N + 1, self.outcomes.tolist(), freq)
        return _q_payload(self.params, q, "mc", self.trials, self.seed)


def _check_seed(seed) -> int:
    """seed as a Python int; ValueError unless an integer in [0, 2^64) (bools rejected)."""
    if not isinstance(seed, Integral) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def _first_success(params: CatParams, e: np.ndarray) -> np.ndarray:
    """Index j - 1 of each trial's first successful step j, or N for none.

    e = -ln U holds each trial's exponential variate.  Until the first
    success, step j (with m = N - j + 1 parties left) fails with probability
    (c + c^m) / (1 + c^m), and the product telescopes: the log survival of
    steps 1..J is

        -ln S(J) = J a + ln(1 + c^N) - ln(1 + c^(N-J)),   a = -ln c,

    increasing in J.  The first success is the smallest J with
    -ln S(J) > e, and a vectorised bisection over J = 1..N + 1 finds it in
    O(log N) steps, with no table of length N.
    """
    n, log_c = params.N, params.log_c
    a = -log_c
    log_norm = math.log1p(math.exp(params.log_cN))
    lo = np.ones_like(e)
    hi = np.full_like(e, n + 1.0)  # N + 1: no success in steps 1..N
    while True:
        open_ = lo < hi
        if not open_.any():
            return (lo - 1.0).astype(np.int64)
        mid = np.floor((lo + hi) / 2.0)
        past = mid * a + log_norm - np.log1p(np.exp((n - mid) * log_c)) > e
        np.copyto(hi, mid, where=open_ & past)
        np.copyto(lo, mid + 1.0, where=open_ & ~past)


def simulate_protocol(params: CatParams, trials: int, seed: int) -> McResult:
    """Monte Carlo simulation of the sequential measurement protocol.

    Event-driven, in O(trials log N) time and O(_MC_BLOCK + outcomes seen)
    memory, independent of N.  One uniform U = 1 - random() in (0, 1] per
    trial picks its first successful step j by inverse transform on the
    closed-form log survival (_first_success); the N - j later parties
    succeed iid with 1 - c, so one Binomial(N - j, 1 - c) draw counts them.

    Randomness comes from the Philox generator keyed directly with the
    seed; each block of _MC_BLOCK trials draws its uniforms, then one
    binomial per trial with a success, in trial order.
    """
    trials = _check_positive_int(trials, "trials")
    if trials > MAX_TRIALS:
        raise ValueError(
            f"trials = {trials} exceeds {MAX_TRIALS}, the largest accepted: "
            "the simulation takes about 1 s per 2^20 trials"
        )
    seed = _check_seed(seed)
    n = _check_distribution_size(params)
    omc = params.one_minus_c
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = Counter()  # outcome -> trials with that outcome, over all blocks
    for start in range(0, trials, _MC_BLOCK):
        rows = min(_MC_BLOCK, trials - start)
        first = _first_success(params, -np.log1p(-rng.random(rows)))
        hit = first < n
        # no success leaves 0 parties; after step j, 1 + Binomial(N - j)
        block = np.zeros(rows, dtype=np.int64)
        block[hit] = 1 + rng.binomial(n - 1 - first[hit], omc)
        seen, count = np.unique(block, return_counts=True)
        counts.update(dict(zip(seen.tolist(), count.tolist())))
    outcomes = np.array(sorted(counts), dtype=np.int64)
    tallies = np.array([counts[k] for k in outcomes.tolist()], dtype=np.int64)
    return McResult(params, outcomes, tallies, trials, seed)
