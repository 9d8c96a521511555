"""Oracle-equivalence validation suite backing the ``validate`` CLI command.

Every closed form in the analysis modules is checked against its dense
brute-force counterpart over a standard grid; each check reports the worst
deviation seen and the tolerance it is held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import decoherence, distillation, loss, oracle
from .core import (
    CHANNEL_KINDS,
    DEPHASING,
    DEPOLARIZING,
    CatParams,
    entropy_s1,
    expected_n,
    normalization_constant,
    reduced_rho1,
)

__all__ = ["CheckResult", "STANDARD_EPSILONS", "STANDARD_GAMMA_TS", "run_validation"]

STANDARD_EPSILONS = (0.1, 0.3, math.pi / 4, math.pi / 2 - 0.1)
STANDARD_GAMMA_TS = (0.05, 0.5, 2.0)
STANDARD_LAMBDAS = (0.1, 0.3, 0.7)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    tol: float


def _result(name: str, max_err: float, tol: float) -> CheckResult:
    return CheckResult(name=name, passed=max_err <= tol, max_err=max_err, tol=tol)


def _check_cat_state_norm(max_n: int) -> CheckResult:
    worst = 0.0
    for n in range(2, max_n + 1):
        for eps in STANDARD_EPSILONS + (math.pi / 2,):
            params = CatParams(n, eps)
            raw = oracle.cat_amplitudes(params)
            worst = max(
                worst,
                abs(float(np.vdot(raw, raw).real) - normalization_constant(params)),
            )
    return _result("cat_state_normalization", worst, 1e-12)


def _check_ghz_reduction(max_n: int) -> CheckResult:
    worst = 0.0
    for n in range(2, max_n + 1):
        cat = oracle.build_cat_state(CatParams(n, math.pi / 2))
        ghz = oracle.build_ghz_state(n)
        worst = max(worst, float(np.max(np.abs(cat - ghz))))
    return _result("ghz_reduction_at_eps_half_pi", worst, 1e-15)


def _check_decoherence(max_n: int) -> list[CheckResult]:
    # each dense block is built once per (n, eps); its evolved norm per kind
    # and gamma_t serves the closed-form check of that kind and the
    # channel-equivalence check
    worst = dict.fromkeys(CHANNEL_KINDS, 0.0)
    worst_equiv = 0.0
    for n, eps in product(range(2, max_n + 1), STANDARD_EPSILONS):
        params = CatParams(n, eps)
        phi1, phi2 = oracle.branch_vectors(params)
        block = oracle.kron_power(np.outer(phi1, phi2.conj()), n)
        for gamma_t in STANDARD_GAMMA_TS:
            dense = {}
            for kind in worst:
                evolved = oracle.apply_product_channel(block, oracle.ChannelSpec(kind, gamma_t))
                dense[kind] = oracle.dense_trace_norm(evolved)
                closed = decoherence.cat_offdiag_norm(params, gamma_t)
                worst[kind] = max(worst[kind], abs(dense[kind] - closed) / closed)
            a, b = dense[DEPHASING], dense[DEPOLARIZING]
            worst_equiv = max(worst_equiv, abs(a - b) / a)
    closed_form = [_result(f"decoherence_closed_form_{k}", w, 1e-9) for k, w in worst.items()]
    return [*closed_form, _result("channel_equivalence", worst_equiv, 1e-12)]


def _check_ghz_rate(max_n: int) -> CheckResult:
    dyad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    worst = 0.0
    grid = product(range(1, max_n + 1), STANDARD_GAMMA_TS, CHANNEL_KINDS)
    for n, gamma_t, kind in grid:
        block = oracle.kron_power(dyad, n)
        evolved = oracle.apply_product_channel(block, oracle.ChannelSpec(kind, gamma_t))
        dense = oracle.dense_trace_norm(evolved)
        closed = decoherence.ghz_offdiag_norm(n, gamma_t)
        worst = max(worst, abs(dense - closed) / closed)
    return _result("ghz_decay_rate", worst, 1e-12)


# Tolerance of n_distill_upper_exact = N S1 against -N sum(lam log2 lam) over
# the eigvalsh eigenvalues of the dense rho1.  The rho1 row holds every dense
# entry within 1e-12 of the closed form, so each eigenvalue moves by at most
# the perturbation's 2-norm, <= 2e-12 for a 2x2 (Weyl).  -x log2 x has slope
# |log2 x + 1/ln 2|: at most 15.9 at the grid's smallest eigenvalue 6.27e-6
# (N = 2, eps = 0.1) and 1.45 at the larger one, so N S1 moves by at most
# 8 * (15.9 + 1.45) * 2e-12 = 2.8e-10 for N <= 8.  The closed form (from
# the determinant) and eigvalsh add a few ulp times the same slopes, far
# below that; 1e-9 rounds the bound up to a decade.
_ENTROPY_BOUND_TOL = 1e-9


def _check_reduced_rho1(max_n: int) -> tuple[CheckResult, CheckResult]:
    # the dense rho1 of each point also gives the entropy bound N S1
    worst = 0.0
    worst_bound = 0.0
    for n in range(2, max_n + 1):
        for eps in STANDARD_EPSILONS + (math.pi / 2,):
            params = CatParams(n, eps)
            dense = oracle.partial_trace_to_first(oracle.build_cat_state(params))
            worst = max(worst, float(np.max(np.abs(dense - reduced_rho1(params)))))
            lams = np.linalg.eigvalsh(dense)
            bound = -n * sum(lam * math.log2(lam) for lam in lams.tolist() if lam > 0.0)
            exact = n * entropy_s1(params)
            worst_bound = max(worst_bound, abs(bound - exact))
    return (
        _result("reduced_rho1_vs_partial_trace", worst, 1e-12),
        _result("n_distill_upper_exact", worst_bound, _ENTROPY_BOUND_TOL),
    )


def _check_protocol(max_n: int) -> tuple[CheckResult, ...]:
    worst_q = 0.0
    worst_mean = 0.0
    worst_fid = 0.0
    worst_complete = 0.0
    for n in range(2, max_n + 1):
        for eps in STANDARD_EPSILONS:
            params = CatParams(n, eps)
            q_dense, branches = oracle.enumerate_protocol(params)
            q_closed = np.fromiter(distillation.outcome_distribution(params).q, float, n + 1)
            worst_q = max(worst_q, float(np.max(np.abs(q_dense - q_closed))))
            mean = float(np.dot(np.arange(n + 1), q_dense))
            expected = expected_n(params)
            worst_mean = max(worst_mean, abs(mean - expected) / expected)
            for branch in branches:
                if branch.n_success >= 1 and branch.state is not None:
                    fid = oracle.ghz_fidelity(branch, n)
                    worst_fid = max(worst_fid, abs(fid - 1.0))
            filt = distillation.build_filter(params)
            completeness = filt.A.conj().T @ filt.A + filt.A_bar.conj().T @ filt.A_bar
            worst_complete = max(
                worst_complete, float(np.max(np.abs(completeness - np.eye(2))))
            )
    return (
        _result("protocol_distribution", worst_q, 1e-10),
        _result("protocol_mean_vs_expected_n", worst_mean, 1e-12),
        _result("protocol_ghz_fidelity", worst_fid, 1e-10),
        _result("measurement_completeness", worst_complete, 1e-12),
    )


def _check_residual_factorization(max_n: int) -> CheckResult:
    worst = 0.0
    for n in range(3, max_n + 1):
        for eps in STANDARD_EPSILONS:
            params = CatParams(n, eps)
            _, a_bar = oracle.biorthonormal_filter(params)
            vec = oracle.apply_one_qubit(oracle.build_cat_state(params), a_bar, 0)
            vec = vec / np.linalg.norm(vec)
            rest = oracle.partial_trace_state(vec, list(range(1, n)))
            residual_cat = oracle.build_cat_state(CatParams(n - 1, eps))
            fid = float((residual_cat.conj() @ rest @ residual_cat).real)
            worst = max(worst, abs(fid - 1.0))
    return _result("residual_factorization", worst, 1e-10)


def _check_loss(max_n: int) -> CheckResult:
    worst = 0.0
    for n, eps, lam in product(range(2, max_n + 1), STANDARD_EPSILONS, STANDARD_LAMBDAS):
        params = CatParams(n, eps)
        model = loss.LossModel(lam)
        dense = oracle.enumerate_loss(params, model)
        closed = loss.cat_loss_suppression(params, model)
        worst = max(worst, abs(dense - closed))
    return _result("loss_subset_expectation", worst, 1e-9)


def run_validation(max_n: int) -> list[CheckResult]:
    """Run every oracle-equivalence check for N = 2..max_n (max_n in [2, 8])."""
    if not (2 <= max_n <= 8):
        raise ValueError(
            f"max_n must lie in [2, 8] (size cap of the dense oracle), got {max_n}"
        )
    rho1_row, entropy_row = _check_reduced_rho1(max_n)
    return [
        _check_cat_state_norm(max_n),
        _check_ghz_reduction(max_n),
        *_check_decoherence(max_n),
        _check_ghz_rate(max_n),
        rho1_row,
        *_check_protocol(max_n),
        _check_residual_factorization(max_n),
        _check_loss(max_n),
        entropy_row,
    ]
