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
from scipy.special import gammaln
from scipy.stats import binom

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
    q = [float(v) for v in q]
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


def outcome_distribution(params: CatParams) -> OutcomeDistribution:
    """Exact outcome distribution over n = 0..N.

    Linear probabilities use the saddle-point binomial pmf (relative error
    ~1e-15 at any N), which is what keeps sum(q) = 1 to 1e-12 at N = 1e6;
    a pure log-gamma assembly drifts to ~4e-10 there because the absolute
    error of lgamma grows with |lgamma|.  log_q is taken from the linear
    values where they are representable and from the log-gamma assembly in
    the underflowed tail.
    """
    n_all = np.arange(params.N + 1)
    cn = math.exp(params.log_cN)
    if params.one_minus_c == 0.0:
        q = np.zeros(params.N + 1)
        q[0] = 1.0
        log_q = np.full(params.N + 1, -np.inf)
        log_q[0] = 0.0
        return OutcomeDistribution(params.N, params.epsilon, q, log_q)

    norm = 1.0 + cn
    q = binom.pmf(n_all, params.N, params.one_minus_c) / norm
    q[0] = 2.0 * cn / norm

    log_norm = math.log1p(cn)
    log_omc = math.log(params.one_minus_c)
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    tail = ~np.isfinite(log_q)
    if np.any(tail):
        n_t = n_all[tail].astype(float)
        log_binom = (
            gammaln(params.N + 1.0) - gammaln(n_t + 1.0) - gammaln(params.N - n_t + 1.0)
        )
        log_q[tail] = (
            n_t * log_omc + (params.N - n_t) * params.log_c + log_binom - log_norm
        )
    return OutcomeDistribution(params.N, params.epsilon, q, log_q)


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

    Uses the compact protocol state (qubits measured so far, any prior
    success) rather than state vectors, so a trial costs O(N).  Randomness
    comes from the counter-based Philox generator keyed directly with the
    seed; trial t consumes row t of a C-ordered (trials, N) uniform matrix,
    so each trial's stream is a function of (seed, trial index, N) only and
    aggregation is order-insensitive.
    """
    trials = _check_positive_int(trials, "trials")
    n = params.N
    m = n - np.arange(1, n + 1) + 1  # remaining qubits at step j
    p_before = params.one_minus_c / (1.0 + np.exp(m * params.log_c))
    p_tilde = params.one_minus_c

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    counts = np.zeros(n + 1, dtype=np.int64)
    step_idx = np.arange(n)
    chunk = max(1, int(2_000_000 // max(n, 1)))
    done = 0
    while done < trials:
        rows = min(chunk, trials - done)
        u = rng.random((rows, n))
        # first success scans the before-first-success thresholds; afterwards
        # the remaining steps are iid with p_tilde -- identical to the
        # sequential per-step rule with the same uniforms
        before = u < p_before[None, :]
        any_success = before.any(axis=1)
        first = np.argmax(before, axis=1)
        later = (step_idx[None, :] > first[:, None]) & (u < p_tilde)
        n_success = np.where(any_success, 1 + later.sum(axis=1), 0)
        counts += np.bincount(n_success, minlength=n + 1)
        done += rows
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
