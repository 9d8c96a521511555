"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Closed forms are held against the dense brute-force oracle over the
standard grid N in 2..8, eps in {0.1, 0.3, pi/4, pi/2 - 0.1},
gamma_t in {0.05, 0.5, 2}, plus pinned large-N operating points.

Three checks (5b, 7b, 9b) hold the small-eps closed forms to the regime
where each is promised.  With x = N eps^2, the distillation mean is
(x/2) / (1 + exp(-x/2)) for small eps at any x, and N eps^2 / 2 only once
exp(-x/2) is negligible (x >> 1).  The reduced-state entropy is
N lambda (log2(1/lambda) + 1/ln 2) with lambda ~ (eps^2/4) tanh(x/4), and
its leading-log form -N eps^2 log2(eps) / 2 needs both x >> 1 and
log2(1/eps) large enough that the dropped terms fall under 2%.  At the
headline points (x = 1, x = 10) the finite-x forms are checked; the bare
asymptotes are checked at points inside their regime.  The exact values
are independently verified (60-digit arithmetic, dense oracle) in the
module test suites.
"""

import math
import time

import numpy as np

from catsize.core import CatParams, entropy_s1, expected_n, reduced_rho1
from catsize.decoherence import cat_offdiag_norm, ghz_offdiag_norm
from catsize.distillation import build_filter, outcome_distribution, simulate_protocol
from catsize.loss import cat_loss_suppression, effective_size_loss
from catsize.oracle import (
    CHANNEL_KINDS,
    DEPHASING,
    DEPOLARIZING,
    ChannelSpec,
    apply_product_channel,
    branch_vectors,
    build_cat_state,
    build_ghz_state,
    dense_trace_norm,
    enumerate_loss,
    enumerate_protocol,
    ghz_fidelities,
    kron_power,
    partial_trace_state,
)
from catsize.report import build_effective_size_report
from domain import HALF_PI

GRID_N = range(2, 9)
GRID_EPS = (0.1, 0.3, math.pi / 4, math.pi / 2 - 0.1)
GRID_GT = (0.05, 0.5, 2.0)
GRID_LAM = (0.1, 0.3, 0.7)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {label}: {detail}"


def _small_eps_mean(x: float) -> float:
    """Small-eps form of <n> at x = N eps^2: (x/2) / (1 + exp(-x/2))."""
    return (x / 2.0) / (1.0 + math.exp(-x / 2.0))


def _branch_block(params: CatParams, n: int) -> np.ndarray:
    """The off-diagonal block |phi1><phi2|^(x)n, from the oracle's branch vectors."""
    phi1, phi2 = branch_vectors(params)
    return kron_power(np.outer(phi1, phi2.conj()), n)


def _evolved_cat_block_norm(params: CatParams, kind: str, gamma_t: float) -> float:
    block = _branch_block(params, params.N)
    evolved = apply_product_channel(block, ChannelSpec(kind, gamma_t))
    return dense_trace_norm(evolved)


def test_criterion_1_decoherence_closed_form():
    """Oracle trace norm of the evolved off-diagonal block equals d^(N/2)."""
    start = time.perf_counter()
    worst = 0.0
    for n in GRID_N:
        for eps in GRID_EPS:
            params = CatParams(n, eps)
            for gamma_t in GRID_GT:
                for kind in CHANNEL_KINDS:
                    dense = _evolved_cat_block_norm(params, kind, gamma_t)
                    closed = cat_offdiag_norm(params, gamma_t)
                    worst = max(worst, abs(dense - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 300.0
    _verdict(
        "1", ok, f"decoherence closed form, max rel err {worst:.3e} (tol 1e-9), "
        f"runtime {elapsed:.1f}s (cap 300s)"
    )


def test_criterion_2_channel_equivalence():
    """Dephasing and depolarizing give identical ||b_t||_1 to 1e-12."""
    worst_2x2 = 0.0
    worst_dense = 0.0
    for eps in GRID_EPS:
        for gamma_t in GRID_GT:
            # the single-qubit (N = 1) block on the same dense Kraus path
            b0 = _branch_block(CatParams(2, eps), 1)
            one = dense_trace_norm(apply_product_channel(b0, ChannelSpec(DEPHASING, gamma_t)))
            two = dense_trace_norm(apply_product_channel(b0, ChannelSpec(DEPOLARIZING, gamma_t)))
            worst_2x2 = max(worst_2x2, abs(one - two))
    for n in GRID_N:
        for eps in GRID_EPS:
            params = CatParams(n, eps)
            for gamma_t in GRID_GT:
                a = _evolved_cat_block_norm(params, DEPHASING, gamma_t)
                b = _evolved_cat_block_norm(params, DEPOLARIZING, gamma_t)
                worst_dense = max(worst_dense, abs(a - b) / a)
    ok = worst_2x2 <= 1e-12 and worst_dense <= 1e-12
    _verdict(
        "2", ok, f"channel equivalence, single-qubit max err {worst_2x2:.3e}, "
        f"N-qubit oracle max rel err {worst_dense:.3e} (tol 1e-12)"
    )


def test_criterion_3_ghz_rate():
    """||a_t^(x)n||_1 = exp(-gamma n t): oracle for n <= 8, closed form for all n."""
    dyad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    worst = 0.0
    for n in GRID_N:
        for gamma_t in GRID_GT:
            for kind in CHANNEL_KINDS:
                evolved = apply_product_channel(
                    kron_power(dyad, n), ChannelSpec(kind, gamma_t)
                )
                dense = dense_trace_norm(evolved)
                worst = max(worst, abs(dense - math.exp(-n * gamma_t)) / math.exp(-n * gamma_t))
    worst_closed = 0.0
    for n in (1, 2, 8, 100, 10**6):
        for gamma_t in GRID_GT:
            closed = ghz_offdiag_norm(n, gamma_t)
            ref = math.exp(-n * gamma_t)
            worst_closed = max(worst_closed, abs(closed - ref) / ref if ref > 0 else 0.0)
    ok = worst <= 1e-12 and worst_closed <= 1e-12
    _verdict(
        "3", ok, f"GHZ rate, oracle max rel err {worst:.3e}, "
        f"closed-form max rel err {worst_closed:.3e} (tol 1e-12)"
    )


def test_criterion_4_distillation_exactness():
    """Protocol tree reproduces q_n; success branches are ideal GHZ states."""
    worst_q = 0.0
    worst_sum = 0.0
    worst_fid = 0.0
    worst_complete = 0.0
    for n in GRID_N:
        for eps in GRID_EPS:
            params = CatParams(n, eps)
            q_dense, probs, branches = enumerate_protocol(params)
            q = np.fromiter(outcome_distribution(params).q, float, n + 1)
            worst_q = max(worst_q, float(np.max(np.abs(q_dense - q))))
            worst_sum = max(worst_sum, abs(q.sum() - 1.0))
            # every success branch (mask >= 1) that has a state, normalized
            for mask in range(1, 2**n):
                if probs[mask] > 1e-300:
                    state = branches[mask] / math.sqrt(probs[mask])
                    fid = ghz_fidelities([state], [mask])[0]
                    worst_fid = max(worst_fid, abs(fid - 1.0))
            a, a_bar = build_filter(params)
            gap = a.conj().T @ a + a_bar.conj().T @ a_bar - np.eye(2)
            worst_complete = max(worst_complete, float(np.max(np.abs(gap))))
    ok = (
        worst_q <= 1e-10
        and worst_sum <= 1e-12
        and worst_fid <= 1e-10
        and worst_complete <= 1e-12
    )
    _verdict(
        "4", ok, f"distillation exactness, q err {worst_q:.3e} (1e-10), "
        f"sum err {worst_sum:.3e} (1e-12), fidelity err {worst_fid:.3e} (1e-10), "
        f"completeness err {worst_complete:.3e} (1e-12)"
    )


def test_criterion_5a_expectation_identity():
    """<n> = (1-c) N / (1 + c^N) equals sum n q_n to 1e-10 relative."""
    worst = 0.0
    cases = [(n, eps) for n in GRID_N for eps in GRID_EPS]
    cases += [(10**4, 0.01), (10**6, 1e-3), (10**6, math.pi / 4)]
    for n, eps in cases:
        params = CatParams(n, eps)
        mean = float(np.arange(n + 1) @ np.fromiter(outcome_distribution(params).q, float, n + 1))
        closed = expected_n(params)
        worst = max(worst, abs(mean - closed) / closed)
    ok = worst <= 1e-10
    _verdict("5a", ok, f"expectation identity, max rel err {worst:.3e} (tol 1e-10)")


def test_criterion_5b_expectation_asymptote_at_headline_point():
    """<n> against its small-eps forms, each within 0.1% where it holds.

    Write c = cos(eps) and x = N eps^2.  For small eps, 1 - c ~ eps^2/2 and
    c^N ~ exp(-x/2), so the exact mean <n> = (1 - c) N / (1 + c^N) becomes

        <n> ~ (x/2) / (1 + exp(-x/2)),

    which holds at any x.  It reduces to the textbook N eps^2 / 2 only for
    x >> 1, where exp(-x/2) is negligible.  At the headline point
    (N=1e6, eps=1e-3) x = 1 and c^N = exp(-1/2) = 0.607, so the exact mean
    0.31122964945694572... (60-digit arithmetic) sits 37.8% below 0.5 but
    5.2e-8 from the finite-x form.  At N = 1e8, same eps, x = 100 and the
    mean is 49.99999583 vs 50.0 (rel dev 8.3e-8).
    """
    value = expected_n(CatParams(10**6, 1e-3))
    target = _small_eps_mean(10**6 * (1e-3) ** 2)
    rel = abs(value - target) / target
    deep = expected_n(CatParams(10**8, 1e-3))
    deep_target = 10**8 * (1e-3) ** 2 / 2
    rel_deep = abs(deep - deep_target) / deep_target
    _verdict(
        "5b",
        rel <= 1e-3 and rel_deep <= 1e-3,
        f"<n>(1e6, 1e-3) = {value:.10f} vs (x/2)/(1+exp(-x/2)) = {target:.10f}, "
        f"rel dev {rel:.2e}; <n>(1e8, 1e-3) = {deep:.8f} vs N eps^2/2 = "
        f"{deep_target}, rel dev {rel_deep:.2e} (tol 1e-3)",
    )


def test_criterion_6_monte_carlo():
    """1e5 trials at (N=2, eps=pi/3): all bins within 4 binomial SE; < 10 s."""
    params = CatParams(2, math.pi / 3)
    trials = 10**5
    start = time.perf_counter()
    result = simulate_protocol(params, trials, seed=12345)
    elapsed = time.perf_counter() - start
    again = simulate_protocol(params, trials, seed=12345)
    exact = np.fromiter(outcome_distribution(params).q, float, 3)
    se = np.sqrt(exact * (1.0 - exact) / trials)
    counts = np.bincount(result.outcomes, weights=result.tallies, minlength=3)
    deviations = np.abs(counts / trials - exact) / se
    ok = (
        bool(np.all(deviations <= 4.0))
        and np.array_equal(result.outcomes, again.outcomes)
        and np.array_equal(result.tallies, again.tallies)
        and elapsed < 10.0
    )
    _verdict(
        "6", ok, f"Monte Carlo, max |emp-exact|/SE = {deviations.max():.2f} (cap 4), "
        f"deterministic re-run, runtime {elapsed:.2f}s (cap 10s)"
    )


def test_criterion_7a_entropy_bound_oracle():
    """reduced_rho1 matches the oracle to 1e-12; mean <= N S1 on the regime grid."""
    worst = 0.0
    for n in range(2, 11):
        for eps in GRID_EPS + (HALF_PI,):
            params = CatParams(n, eps)
            dense = partial_trace_state(build_cat_state(params), [0])
            worst = max(worst, float(np.max(np.abs(dense - reduced_rho1(params)))))
    ordering = True
    for eps in (0.01, 0.05, 0.1, 0.2):
        for n_eps_sq in (10.0, 30.0, 100.0):
            params = CatParams(int(math.ceil(n_eps_sq / eps**2)), eps)
            report = build_effective_size_report(params)
            ordering = ordering and report.n_distill_mean <= report.n_distill_upper_exact
    ok = worst <= 1e-12 and ordering
    _verdict(
        "7a", ok, f"entropy bound, rho1 vs oracle max err {worst:.3e} (tol 1e-12), "
        f"mean <= N S1 on the N eps^2 >= 10 grid: {ordering}"
    )


def test_criterion_7b_entropy_asymptote_at_headline_point():
    """N S1 against its small-eps forms, each within 2% where it holds.

    With c = cos(eps) and x = N eps^2, the smaller eigenvalue of rho1 is

        lambda = (1 - c)(1 - c^(N-1)) / (2 (1 + c^N)) ~ (eps^2/4) tanh(x/4),

    and the binary entropy to next order in lambda gives

        N S1 ~ N lambda (log2(1/lambda) + 1/ln 2).

    At (N=1e7, eps=1e-3) this form is checked: N S1 = 57.70140633...
    (60-digit arithmetic; rho1 itself is oracle-checked at small N).

    Dropping the tanh and the non-log terms leaves the leading-log form
    -N eps^2 log2(eps) / 2 = 49.82892142... here, and N S1 exceeds it by
    15.8%.  That gap has two parts: the leading-log form is off by
    (2 + 1/ln 2) / (2 log2(1/eps)) = 17.3% at eps = 1e-3, and at x = 10
    the factor tanh(x/4) = 0.987 is not yet 1 (1.173 * 0.987 = 1.157; the
    last 0.1% is the log2(1/tanh(x/4)) term).  The leading-log form is
    therefore checked where it holds, at (N=1e62, eps=1e-30): x = 100, so
    tanh(x/4) = 1, and the log error is 1.73%.
    """
    n, eps = 10**7, 1e-3
    exact = n * entropy_s1(CatParams(n, eps))
    x = n * eps * eps
    lam = eps * eps / 4.0 * math.tanh(x / 4.0)
    form = n * lam * (math.log2(1.0 / lam) + 1.0 / math.log(2.0))
    rel = abs(exact - form) / form
    n_deep, eps_deep = 10**62, 1e-30
    deep = n_deep * entropy_s1(CatParams(n_deep, eps_deep))
    asym = -n_deep * eps_deep * eps_deep * math.log2(eps_deep) / 2.0
    rel_deep = abs(deep - asym) / asym
    _verdict(
        "7b",
        rel <= 0.02 and rel_deep <= 0.02,
        f"N S1(1e7, 1e-3) = {exact:.4f} vs next-order form {form:.4f}, "
        f"rel dev {rel:.2e}; N S1(1e62, 1e-30) = {deep:.4f} vs leading-log "
        f"{asym:.4f}, rel dev {rel_deep:.4f} (tol 0.02)",
    )


def test_criterion_8_loss():
    """Loss subset oracle equals (1 - lam (1 - cos eps))^N; rate matching."""
    worst = 0.0
    for n in GRID_N:
        for eps in GRID_EPS:
            params = CatParams(n, eps)
            for lam in GRID_LAM:
                dense = enumerate_loss(params, lam)
                closed = cat_loss_suppression(params, lam)
                worst = max(worst, abs(dense - closed))
    size = effective_size_loss(CatParams(10**6, 1e-3))
    target = 10**6 * (1e-3) ** 2 / 2
    rel = abs(size - target) / target
    identity = abs(
        effective_size_loss(CatParams(37, 0.9)) - 37 * (1 - math.cos(0.9))
    ) <= 1e-12 * 37
    ok = worst <= 1e-9 and rel <= 1e-6 and identity
    _verdict(
        "8", ok, f"loss, subset oracle max err {worst:.3e} (tol 1e-9), "
        f"n_loss vs N eps^2/2 rel dev {rel:.2e} (tol 1e-6)"
    )


def test_criterion_9a_headline_report():
    """(N=1e6, eps=1e-3) is strictly less entangled than GHZ_10 everywhere; < 1 s."""
    start = time.perf_counter()
    report = build_effective_size_report(CatParams(10**6, 1e-3))
    elapsed = time.perf_counter() - start
    measures = {
        "n_decoherence": report.n_decoherence,
        "n_distill_mean": report.n_distill_mean,
        "n_distill_upper_exact": report.n_distill_upper_exact,
        "n_distill_upper_asymptotic": report.n_distill_upper_asymptotic,
        "n_loss": report.n_loss,
    }
    below_ghz10 = all(v < 10.0 for v in measures.values())
    ok = abs(report.n_decoherence - 1.0) < 1e-5 and below_ghz10 and elapsed < 1.0
    _verdict(
        "9a", ok, f"headline report, n_decoherence = {report.n_decoherence:.8f} (~1), "
        f"all measures < 10: {below_ghz10}, runtime {elapsed:.3f}s (cap 1s)"
    )


def test_criterion_9b_headline_distill_mean():
    """The headline report's n_distill_mean is the exact mean, ~ (x/2)/(1+exp(-x/2)).

    At (N=1e6, eps=1e-3) x = N eps^2 = 1 is not >> 1, so, as in criterion
    5b, the mean follows the finite-x form (x/2) / (1 + exp(-x/2)) =
    0.31122967, not its N eps^2 / 2 = 0.5 limit.  The report must carry
    the exact mean 0.31122964945694573 (60-digit arithmetic), which is
    pinned to 1e-12 so that returning the asymptote in its place fails.
    The headline conclusion (0.311 < 10) is covered by criterion 9a.
    """
    report = build_effective_size_report(CatParams(10**6, 1e-3))
    target = _small_eps_mean(10**6 * (1e-3) ** 2)
    rel = abs(report.n_distill_mean - target) / target
    exact = 0.31122964945694573
    rel_exact = abs(report.n_distill_mean - exact) / exact
    _verdict(
        "9b",
        rel <= 1e-3 and rel_exact <= 1e-12,
        f"n_distill_mean = {report.n_distill_mean:.10f} vs (x/2)/(1+exp(-x/2)) "
        f"= {target:.10f}, rel dev {rel:.2e} (tol 1e-3); vs exact {exact:.14f}, "
        f"rel dev {rel_exact:.1e} (tol 1e-12)",
    )


def test_criterion_10_trivial_reductions():
    """eps = pi/2: every measure is exactly N, q_N = 1, cat state is GHZ_N."""
    worst_measure = 0.0
    for n in (2, 5, 10):
        report = build_effective_size_report(CatParams(n, HALF_PI))
        for v in (
            report.n_decoherence,
            report.n_distill_mean,
            report.n_distill_upper_exact,
            report.n_loss,
        ):
            worst_measure = max(worst_measure, abs(v - n))
    q = list(outcome_distribution(CatParams(6, HALF_PI)).q)
    q_gap = abs(q[6] - 1.0)
    worst_amp = 0.0
    for n in (2, 5, 8):
        cat = build_cat_state(CatParams(n, HALF_PI))
        worst_amp = max(worst_amp, float(np.max(np.abs(cat - build_ghz_state(n)))))
    ok = worst_measure <= 1e-6 and q_gap <= 1e-12 and worst_amp <= 1e-15
    _verdict(
        "10", ok, f"trivial reductions, measure err {worst_measure:.3e} (1e-6), "
        f"q_N err {q_gap:.3e} (1e-12), amplitude err {worst_amp:.3e} (1e-15)"
    )
