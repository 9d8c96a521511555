"""Oracle-equivalence validation suite backing the ``validate`` CLI command.

Checked against dense brute force over a standard grid: ``core``'s
normalization_constant, reduced_rho1, expected_n and N * entropy_s1 (the
report's n_distill_mean and n_distill_upper_exact), ``decoherence``'s
cat_offdiag_norm and ghz_offdiag_norm, ``distillation``'s
outcome_distribution and build_filter, and ``loss.cat_loss_suppression``.
The report's n_decoherence and n_loss have no row yet.  The state rows
(norm, GHZ limit, rho1 with N * S1, residual after a failed filter) share
one dense cat state per (N, eps).  ``ROWS`` lists the rows in the order
``validate`` prints them, each with its tolerance.  Each check yields a
``(row, error)`` pair per grid point; ``run_validation`` keeps each row's
worst error, NaN once one is seen, and a row fails when that is above its
tolerance or not finite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, product

import numpy as np

from . import decoherence, distillation, loss, oracle
from .core import (CatParams, _check_int, entropy_s1, expected_n,
                   normalization_constant, reduced_rho1)
from .oracle import CHANNEL_KINDS, DEPHASING, DEPOLARIZING, MAX_ENUM_QUBITS

__all__ = ["CheckResult", "run_validation"]

STANDARD_EPSILONS = (0.1, 0.3, math.pi / 4, math.pi / 2 - 0.1)
# the grid and eps = pi/2, for the checks defined where the branches are orthogonal
EPSILONS_TO_HALF_PI = STANDARD_EPSILONS + (math.pi / 2,)
STANDARD_GAMMA_TS = (0.05, 0.5, 2.0)
STANDARD_LAMBDAS = (0.1, 0.3, 0.7)

ROWS = {
    "cat_state_normalization": 1e-12,
    "ghz_reduction_at_eps_half_pi": 1e-15,
    "decoherence_closed_form_dephasing": 1e-9,
    "decoherence_closed_form_depolarizing": 1e-9,
    "channel_equivalence": 1e-12,
    "ghz_decay_rate": 1e-12,
    "reduced_rho1_vs_partial_trace": 1e-12,
    "protocol_distribution": 1e-10,
    "protocol_mean_vs_expected_n": 1e-12,
    "protocol_ghz_fidelity": 1e-10,
    "measurement_completeness": 1e-12,
    "residual_factorization": 1e-10,
    "loss_subset_expectation": 1e-9,
    # N S1 against -N sum(lam log2 lam) over the eigvalsh eigenvalues of the
    # dense rho1.  The rho1 row holds every dense entry within 1e-12 of the
    # closed form, so each eigenvalue moves by at most the perturbation's
    # 2-norm, <= 2e-12 for a 2x2 (Weyl).  -x log2 x has slope
    # |log2 x + 1/ln 2|: at most 15.9 at the grid's smallest eigenvalue
    # 6.27e-6 (N = 2, eps = 0.1) and 1.45 at the larger one, so N S1 moves by
    # at most 8 * (15.9 + 1.45) * 2e-12 = 2.8e-10 for N <= 8.  The closed
    # form (from the determinant) and eigvalsh add a few ulp times the same
    # slopes, far below that; 1e-9 rounds the bound up to a decade.
    "n_distill_upper_exact": 1e-9,
}


class CheckResult(namedtuple("CheckResult", "name max_err tol")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def _rel_err(value, ref) -> float:
    """|value - ref| / |ref|: 0 where the two are equal, inf where only ref is 0."""
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref else math.inf


def _cat_state(max_n: int):
    for n, eps in product(range(2, max_n + 1), EPSILONS_TO_HALF_PI):
        params = CatParams(n, eps)
        raw = oracle.cat_amplitudes(params)
        norm = float(np.vdot(raw, raw).real)
        yield "cat_state_normalization", abs(norm - normalization_constant(params))
        cat = raw / np.linalg.norm(raw)  # as build_cat_state normalises
        if eps == math.pi / 2:
            ghz = oracle.build_ghz_state(n)
            yield "ghz_reduction_at_eps_half_pi", float(np.max(np.abs(cat - ghz)))
        dense = oracle.partial_trace_state(cat, [0])
        yield "reduced_rho1_vs_partial_trace", float(np.max(np.abs(dense - reduced_rho1(params))))
        lams = np.linalg.eigvalsh(dense).tolist()
        bound = -n * sum(lam * math.log2(lam) for lam in lams if lam > 0.0)
        yield "n_distill_upper_exact", abs(bound - n * entropy_s1(params))
        if eps < math.pi / 2:
            # at N = 2 the residual is a one-qubit cat
            _, a_bar = oracle.biorthonormal_filter(params)
            vec = oracle.apply_one_qubit(cat, a_bar, 0)
            rest = oracle.partial_trace_state(vec / np.linalg.norm(vec), list(range(1, n)))
            residual_cat = oracle.build_cat_state(CatParams(n - 1, eps))
            fid = float((residual_cat.conj() @ rest @ residual_cat).real)
            yield "residual_factorization", abs(fid - 1.0)


def _decoherence(max_n: int):
    # one dense block per (n, eps); its evolved norm per kind and gamma_t
    # serves the closed-form row of that kind and the channel-equivalence row
    for n, eps in product(range(2, max_n + 1), STANDARD_EPSILONS):
        params = CatParams(n, eps)
        phi1, phi2 = oracle.branch_vectors(params)
        block = oracle.kron_power(np.outer(phi1, phi2.conj()), n)
        for gamma_t in STANDARD_GAMMA_TS:
            closed = decoherence.cat_offdiag_norm(params, gamma_t)
            dense = {}
            for kind in CHANNEL_KINDS:
                evolved = oracle.apply_product_channel(block, oracle.ChannelSpec(kind, gamma_t))
                dense[kind] = oracle.dense_trace_norm(evolved)
                yield f"decoherence_closed_form_{kind}", _rel_err(dense[kind], closed)
            yield "channel_equivalence", _rel_err(dense[DEPOLARIZING], dense[DEPHASING])


def _ghz_rate(max_n: int):
    dyad = np.array([[0.0, 1.0], [0.0, 0.0]])
    for n in range(1, max_n + 1):
        block = oracle.kron_power(dyad, n)
        for gamma_t, kind in product(STANDARD_GAMMA_TS, CHANNEL_KINDS):
            evolved = oracle.apply_product_channel(block, oracle.ChannelSpec(kind, gamma_t))
            dense = oracle.dense_trace_norm(evolved)
            yield "ghz_decay_rate", _rel_err(dense, decoherence.ghz_offdiag_norm(n, gamma_t))


def _protocol(max_n: int):
    for n, eps in product(range(2, max_n + 1), STANDARD_EPSILONS):
        params = CatParams(n, eps)
        q_dense, probs, branches = oracle.enumerate_protocol(params)
        q_closed = np.fromiter(distillation.outcome_distribution(params).q, float, n + 1)
        yield "protocol_distribution", float(np.max(np.abs(q_dense - q_closed)))
        mean = float(np.dot(np.arange(n + 1), q_dense))
        yield "protocol_mean_vs_expected_n", _rel_err(mean, expected_n(params))
        # every success branch (mask >= 1) normalized, in one stacked
        # fidelity call; below probability 1e-300 a branch has no state
        masks = 1 + np.flatnonzero(probs[1:] > 1e-300)
        states = branches[masks] / np.sqrt(probs[masks])[:, None]
        for fid in oracle.ghz_fidelities(states, masks).tolist():
            yield "protocol_ghz_fidelity", abs(fid - 1.0)
        a, a_bar = distillation.build_filter(params)
        completeness = a.conj().T @ a + a_bar.conj().T @ a_bar
        yield "measurement_completeness", float(np.max(np.abs(completeness - np.eye(2))))


def _loss(max_n: int):
    for n, eps, lam in product(range(2, max_n + 1), STANDARD_EPSILONS, STANDARD_LAMBDAS):
        params = CatParams(n, eps)
        dense = oracle.enumerate_loss(params, lam)
        yield "loss_subset_expectation", abs(dense - loss.cat_loss_suppression(params, lam))


_CHECKS = (_cat_state, _decoherence, _ghz_rate, _protocol, _loss)


def run_validation(max_n: int) -> list[CheckResult]:
    """Run every oracle-equivalence check for N = 2..max_n, max_n in [2, MAX_ENUM_QUBITS]."""
    max_n = _check_int(max_n, "max_n", lo=2, hi=MAX_ENUM_QUBITS)
    worst = dict.fromkeys(ROWS, 0.0)
    for row, err in chain.from_iterable(check(max_n) for check in _CHECKS):
        if err > worst[row] or math.isnan(err):
            worst[row] = err
    return [CheckResult(row, worst[row], tol) for row, tol in ROWS.items()]
