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

The exact distribution and the Monte Carlo sampler need only the standard
library, so importing this module loads no numpy; build_filter, which
returns arrays, imports numpy when it is called.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter, namedtuple
from typing import TYPE_CHECKING

from .core import HALF_PI, CatParams, _check_int, _check_real
from .serialize import SparseFloats

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np

    _check_real(params.epsilon, "epsilon", lo=5e-324, hi=HALF_PI)
    c, s = params.c_eps, params.s_eps
    a = np.array([[s, -c], [0.0, 1.0]]) / math.sqrt(1.0 + c)
    u = np.array([math.sqrt((1.0 + c) / 2.0), s / math.sqrt(2.0 * (1.0 + c))])
    return a, math.sqrt(2.0 * c / (1.0 + c)) * np.outer(u, u)


# Largest N accepted by outcome_distribution and simulate_protocol.  The
# pmf window, the sampler and the payloads, whose q lists are SparseFloats,
# do not grow with N (the window grows like sqrt(N)); what does is the
# output of distill-sim, two JSON lists of N + 1 entries, almost all "0, ":
# 6 bytes per N.  The cap is the largest power of two at which the output
# stays under 1 GiB: 768 MiB at 2^27, whatever eps.  Measured there with
# the default 10^4 trials (2-core Xeon, Python 3.11, stdout to /dev/null,
# medians of 11): 0.22 s and 15 MiB max RSS at eps = 1e-3, 2.4 s and
# 71 MiB at pi/4 (405 800 window entries), and 2.6 s and 73 MiB at pi/3,
# where c = 1/2 makes the window widest (445 819 entries).
MAX_DISTRIBUTION_N = 2**27
# Largest trials accepted by simulate_protocol: the largest power of two
# whose worst case fits the 30 s of cli.MAX_CURVE_STEPS.  Memory does not
# grow with the trials, the time does, 0.5 to 3 us a trial; the most is
# near N (1 - c) = 11 at eps ~ 1, where the binomial draws are short
# inversion walks and BTRS runs with its narrowest hat.  distill-sim with
# 2^23 trials takes 18 to 27 s at N = 21, eps = 1.0745 (3 runs), 17 s at
# N = 2^27, eps = 1e-3, and 19 s and 73 MiB max RSS at N = 2^27,
# eps = pi/4 (2-core Xeon, Python 3.11, stdout to /dev/null); 2^24 would
# take twice that.
MAX_TRIALS = 2**23
# log_q below this is left out of the stored window: exp underflows to 0.0
# below about -745.13, and the margin covers the rounding of the window ends
_LOG_Q_FLOOR = -750.0
_LN2 = math.log(2.0)


def _q_payload(params: CatParams, q, source, trials, seed) -> dict:
    # payload shared by the exact and the Monte Carlo distribution
    n, eps = params.N, params.epsilon
    return {"N": n, "epsilon": eps, "q": q, "source": source, "trials": trials, "seed": seed}


class OutcomeDistribution(namedtuple("OutcomeDistribution", "params lo log_q_window")):
    """Distribution q_0..q_N of the number of distilled GHZ parties.

    Only the window k = lo..lo + len(log_q_window) - 1 is stored, as a
    tuple of ln q_k; every q_k outside it underflows to 0.  q is a
    SparseFloats over 0..N that holds exp of the window, rebuilt on each
    access: len(q) is N + 1 and iterating it gives every q_k, in memory of
    the window's size only.  Compared and hashed by value.
    """

    __slots__ = ()

    @property
    def q(self) -> SparseFloats:
        window = range(self.lo, self.lo + len(self.log_q_window))
        return SparseFloats(self.params.N + 1, window, map(math.exp, self.log_q_window))

    def to_payload(self) -> dict:
        return _q_payload(self.params, self.q, "exact", None, None)


# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 1..15, from
# mp.loggamma(n + 1) - (n + 1/2) mp.log(n) + n - mp.log(2 mp.pi) / 2 at
# mp.dps = 40, printed with format(float(v), ".17g")
_STIRLERR_SMALL = (
    0.081061466795327261, 0.041340695955409297, 0.027677925684998338,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.0092554621827127329,
    0.0083305634333628708, 0.0075736754879518406, 0.0069428401072095299,
    0.0064089941880042071, 0.0059513701127588475, 0.0055547335519628011,
)
_LN_2PI = math.log(2.0 * math.pi)
# 1/3, 1/5, ..., 1/17: the near-branch series of bd0 in w = v^2 < 0.01;
# the first omitted term is below 1e-18 of the result
_BD0_COEFFS = tuple(1.0 / (2 * j + 1) for j in range(1, 9))


def _stirlerr(n: int) -> float:
    """Stirling-series error ln n! - ln(sqrt(2 pi n) (n/e)^n) for an integer n >= 1.

    Tabulated for n <= 15; above that the 5-term series
    1/(12n) - 1/(360n^3) + 1/(1260n^5) - 1/(1680n^7) + 1/(1188n^9),
    whose first omitted term is below 1.2e-16 at n = 16.
    """
    if n <= 15:
        return _STIRLERR_SMALL[n - 1]
    n = float(n)
    inv_sq = 1.0 / (n * n)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv_sq / 1188) * inv_sq)
                      * inv_sq) * inv_sq) / n


def _bd0(x: float, m: float) -> float:
    """Deviance term x ln(x/m) + m - x >= 0 for x >= 1 and m > 0 (Loader 2000).

    Near x = m, where |x - m| < 0.1 (x + m), the direct form cancels; there
    it is (x - m) v + 2 x sum_j v^(2j+1)/(2j+1) with v = (x - m)/(x + m).
    """
    # |x - m| < 0.1 (x + m) is 9m/11 < x < 11m/9, without float temporaries
    if m * (9 / 11) < x < m * (11 / 9):
        d = x - m
        v = d / (x + m)
        w = v * v
        series = _BD0_COEFFS[-1]
        for coeff in _BD0_COEFFS[-2::-1]:
            series = series * w + coeff
        return d * v + 2.0 * x * v * w * series
    # x / m overflows for subnormal m; for m < 1 <= x the difference of
    # logs has no cancellation
    log_ratio = math.log(x / m) if m >= 1.0 else math.log(x) - math.log(m)
    return x * log_ratio + m - x


def _log_q(params: CatParams, ks) -> tuple[float, ...]:
    """ln q_k for each k of ks, integers in 0..N.

    For k >= 1, ln q_k = ln pmf(k) - ln(1 + c^N), where pmf is the binomial
    pmf C(N, k) p^k c^(N-k) with p = 1 - c in Loader's saddle-point form
    ("Fast and Accurate Computation of Binomial Probabilities", 2000, the
    algorithm behind R's dbinom):

        ln pmf(k) = stirlerr(N) - stirlerr(k) - stirlerr(N-k)
                    - bd0(k, N p) - bd0(N-k, N c) - ln(2 pi k (N-k) / N) / 2,

    and N ln p at k = N; ln q_0 = ln 2 + N ln c - ln(1 + c^N).  p and c
    are read from params separately, with their logs, so that neither is
    formed by a cancelling difference.  Each entry is the same sequence of
    float operations whatever the other ks, so a window's entries are
    bit-identical to the same k of a scan of 0..N.  The error in ln pmf is
    mostly the rounding of p and c, times |k - N p|: 3e-13 at N = 1e7 and
    p = 1 - cos(pi/4), three sigma from the mode.
    """
    n, p, c = params.N, params.one_minus_c, params.c_eps
    if p == 0.0:
        # eps = 0 (or so small that 1 - c rounds to 0): q_0 = 1
        return tuple(0.0 if k == 0 else -math.inf for k in ks)
    # ln(1 - c) as CatParams.log_c takes ln c: log1p where its argument is small
    log_p = math.log1p(-c) if c < 0.5 else math.log(p)
    log_norm = math.log1p(math.exp(params.log_cN))
    mean_p, mean_c = n * p, n * c
    stirlerr_n, log_2pi_over_n = _stirlerr(n), _LN_2PI - math.log(n)
    out = []
    for k in ks:
        if k == 0:
            out.append(_LN2 + params.log_cN - log_norm)
        elif k == n:
            out.append(n * log_p - log_norm)
        else:
            n_k = n - k
            # ln(2 pi k (N-k) / N) / 2
            lf = (math.log(k) + math.log(n_k) + log_2pi_over_n) * 0.5
            out.append(stirlerr_n - _stirlerr(k) - _stirlerr(n_k)
                       - _bd0(k, mean_p) - _bd0(n_k, mean_c) - lf - log_norm)
    return tuple(out)


def outcome_distribution(params: CatParams) -> OutcomeDistribution:
    """Exact outcome distribution over n = 0..N.

    One log-domain path, _log_q: ln q_k = ln pmf - ln(1 + c^N), with ln pmf
    the saddle-point binomial pmf with p = 1 - c, and
    ln q_0 = ln 2 + N ln c - ln(1 + c^N); q = exp(ln q).  The saddle-point
    form keeps sum(q) = 1 to 1e-12 at N = 1e6, where a log-gamma assembly
    drifts to ~4e-10 because the absolute error of lgamma grows with
    |lgamma|.

    Only the window of k where log_q >= -750 is computed and stored; exp
    gives exactly 0.0 below about -745.  Two bisections on the concave
    ln pmf find it in O(log N) scalar evaluations, so time and memory are
    O(width + log N), not O(N).  The width grows like sqrt(N (1 - c) c):
    157 entries at N = 1e6 and eps = 1e-3 (instead of N + 1), 35080 at
    eps = pi/4, 448 at N = 2^26 and eps = 1e-3.
    """
    n = _check_int(params.N, "N", hi=MAX_DISTRIBUTION_N)
    lo = hi = 0  # eps = 0, or 1 - c rounds to 0: q_0 = 1
    if params.one_minus_c != 0.0:
        # ln pmf is concave in k, so it rises to the mode and falls after it,
        # and a bisection on each side finds the ends.  q_0 carries an extra
        # factor 2; every q_k from k = 1 to the mode is at least q_0 / 2, so
        # when q_0 clears the floor the window simply extends to 0
        def clears(k: int) -> bool:
            return _log_q(params, (k,))[0] >= _LOG_Q_FLOOR

        mode = min(max(math.floor((n + 1) * params.one_minus_c), 1), n)
        hi = n - bisect_left(range(n, mode, -1), True, key=clears)
        if not clears(0):
            lo = 1 + bisect_left(range(1, mode), True, key=clears)
    return OutcomeDistribution(params, lo, _log_q(params, range(lo, hi + 1)))


class McResult(namedtuple("McResult", "params outcomes tallies trials seed")):
    """Empirical outcome counts from a seeded protocol simulation at params.

    Only the outcomes that occurred are stored, as tuples of ints:
    outcomes[i] parties were distilled in tallies[i] trials, outcomes
    ascending.  The payload's q is a SparseFloats over 0..N that holds the
    frequencies of those outcomes, tallies / trials.  Compared and hashed
    by value.
    """

    __slots__ = ()

    def to_payload(self) -> dict:
        freq = [t / self.trials for t in self.tallies]
        q = SparseFloats(self.params.N + 1, self.outcomes, freq)
        return _q_payload(self.params, q, "mc", self.trials, self.seed)


def _first_success(params: CatParams):
    """The map from a trial's variate e to the index j - 1 of its first successful step j, or N.

    e = -ln U is the trial's exponential variate.  Step j fails with
    probability (c + c^m) / (1 + c^m), m = N - j + 1, and with a = -ln c,
    C = c^N and Y = exp(J a) the log survival of steps 1..J telescopes to
    -ln S(J) = ln(Y (1 + C) / (1 + C Y)).  It exceeds e exactly when
    x = C expm1(e) < 1 and J a > t = e - log1p(-x): the first success is
    min(floor(t / a), N), and N where x >= 1.  log1p is well conditioned at
    that boundary, x = (1 - C) / 2, and e <= 53 ln 2, so an underflowed C
    does no harm.  a and C are computed once here, not once per trial.
    """
    n, a = params.N, -params.log_c
    if a == 0.0:
        # 1 - cos(eps) rounds to 0: no step ever succeeds
        return lambda e: n
    big_c = math.exp(params.log_cN)

    def first(e: float) -> int:
        x = big_c * math.expm1(e)
        if x >= 1.0:
            return n
        # a subnormal a overflows t / a to inf, which gives N as well
        steps = (e - math.log1p(-x)) / a
        return n if steps >= n else math.floor(steps)

    return first


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) variate drawn from rng, for an integer n >= 0 and 0 <= p <= 1.

    n - Binomial(n, 1 - p) for p > 1/2, where 1 - p is exact.  Below that,
    inversion, one uniform, when the mean n p is below 10, and otherwise
    Hormann's transformed rejection with squeeze, BTRS ("The generation of
    binomial random variates", J. Stat. Comput. Simul. 46, 1993), as
    published: its acceptance test takes ln(pmf(k) / pmf(mode)) from
    lgamma, with an absolute error of about ulp(ln n!), 5e-7 at n = 2^27.
    """
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    q = 1.0 - p
    if n * p < 10.0:
        # walk up from pmf(0) = q^n by pmf(k) / pmf(k-1) = (n + 1 - k) p / (k q)
        ratio = p / q
        scale = (n + 1) * ratio
        pmf = math.exp(n * math.log1p(-p))
        u = rng.random()
        k = 0
        while u > pmf and k < n:
            u -= pmf
            k += 1
            pmf *= scale / k - ratio
        return k
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    mode = None
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:
            # random() = 0 put u at -1/2, the pole of the hat
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        if mode is None:
            # set up on the first squeeze miss
            alpha = (2.83 + 5.1 / b) * spq
            log_odds = math.log(p / q)
            mode = math.floor((n + 1) * p)
            log_fact_mode = math.lgamma(mode + 1) + math.lgamma(n - mode + 1)
        # accept when v alpha / (a / us^2 + b) <= pmf(k) / pmf(mode)
        log_ratio = (log_fact_mode - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                     + (k - mode) * log_odds)
        if v * alpha / (a / (us * us) + b) <= math.exp(log_ratio):
            return k


def simulate_protocol(params: CatParams, trials: int, seed: int) -> McResult:
    """Monte Carlo simulation of the sequential measurement protocol.

    Event-driven, in O(trials) time and O(outcomes seen) memory,
    independent of N.  One uniform U = 1 - random() in (0, 1] per trial
    picks its first successful step j by the closed-form inverse of the
    log survival (_first_success); U = 1 picks step 1 whenever
    1 - cos(eps) > 0.  The N - j later parties succeed iid with 1 - c, so
    one Binomial(N - j, 1 - c) draw (_binomial) counts them.

    One random.Random(seed), the Mersenne Twister, drives every draw:
    each trial takes its uniform, then, after a success, its binomial's
    uniforms, trial after trial.
    """
    trials = _check_int(trials, "trials", hi=MAX_TRIALS)
    seed = _check_int(seed, "seed", lo=0, hi=2**64 - 1)
    n = _check_int(params.N, "N", hi=MAX_DISTRIBUTION_N)
    omc = params.one_minus_c
    first_success = _first_success(params)
    rng = random.Random(seed)
    counts = Counter()  # outcome -> trials with that outcome
    for _ in range(trials):
        first = first_success(-math.log(1.0 - rng.random()))
        # no success leaves 0 parties; after step j, 1 + Binomial(N - j)
        counts[0 if first == n else 1 + _binomial(rng, n - 1 - first, omc)] += 1
    outcomes = tuple(sorted(counts))
    return McResult(params, outcomes, tuple(counts[k] for k in outcomes), trials, seed)
