"""Known defects, each kept as a test of the ``validate`` row meant to catch it.

Every entry of ``DEFECTS`` puts one defect into the running code by
replacing one ``catsize`` module attribute, named by its dotted path,
through ``monkeypatch``; no file is edited.
The test then runs the validation suite in process at the entry's
``--max-n`` and asserts that exactly the listed rows fail.  A change that
weakens a row so that its defect gets through fails here.

An entry with a ``gap`` is a defect that no row catches yet.  It runs as a
strict xfail whose reason names the ROADMAP item meant to catch it, and
its ``failing_rows`` name the row that should then fail (a row that item
adds, where no row reads the value yet).  When the item lands, the entry
passes, strict XPASS fails the suite, and the mark is removed.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from catsize import decoherence, distillation, loss, oracle, report, validation
from catsize.validation import run_validation

_GHZ_FIDELITIES = oracle.ghz_fidelities
_ENUMERATE_PROTOCOL = oracle.enumerate_protocol
_CAT_AMPLITUDES = oracle.cat_amplitudes
_BUILD_GHZ_STATE = oracle.build_ghz_state
_REDUCED_RHO1 = validation.reduced_rho1
_LOG_Q = distillation._log_q
_BUILD_REPORT = report.build_effective_size_report
_SCALE = 1.0 + 1e-10


def _mask_bits_reversed(states, masks):
    # reads qubit j at bit j - 1 instead of bit n - j
    n = np.shape(states)[1].bit_length() - 1
    return _GHZ_FIDELITIES(states, [int(f"{m:0{n}b}"[::-1], 2) for m in masks])


def _probabilities_of_one(params):
    # the branches reach the fidelity unnormalized
    q, probs, branches = _ENUMERATE_PROTOCOL(params)
    return q, np.ones_like(probs), branches


def _unit_norm_amplitudes(params):
    # the raw amplitudes come back normalized, so K reads 1
    raw = _CAT_AMPLITUDES(params)
    return raw / np.linalg.norm(raw)


def _ghz_minus(n):
    # (|0...0> - |1...1>) / sqrt(2)
    vec = _BUILD_GHZ_STATE(n)
    vec[-1] = -vec[-1]
    return vec


def _rho1_offdiag_flipped(params):
    rho = _REDUCED_RHO1(params).copy()
    rho[0, 1], rho[1, 0] = -rho[0, 1], -rho[1, 0]
    return rho


def _filter_skipped(state, m, qubit):
    # the failure outcome leaves the state as it was
    return state


def _q0_without_factor_2(params, lo, hi):
    log_q = _LOG_Q(params, lo, hi)
    if lo == 0:
        log_q[0] -= math.log(2.0)
    return log_q


def _q0_without_factor_2_where_c_n_underflows(params, lo, hi):
    # q_0 loses its factor 2 only where c^N underflows, far past the qubit
    # counts the dense oracle reaches
    log_q = _LOG_Q(params, lo, hi)
    if lo == 0 and math.exp(params.log_cN) == 0.0:
        log_q[0] -= math.log(2.0)
    return log_q


def _channel_without_rotation(op, ch):
    # each step applies S to the leading (row, column) pair and leaves it
    # in front, so qubit 1 gets S n times and the other qubits never
    op = np.asarray(op, dtype=complex)
    n = op.shape[0].bit_length() - 1
    interleave = [a for q in range(n) for a in (q, n + q)]
    out = op.reshape((2,) * (2 * n)).transpose(interleave)
    for _ in range(n):
        out = oracle._superoperator(ch) @ out.reshape(4, -1)
    return out.reshape((2,) * (2 * n)).transpose(np.argsort(interleave)).reshape(op.shape)


def _scaled(func):
    # the same closed form, its value scaled by 1 + 1e-10
    return lambda *args: func(*args) * _SCALE


def _log_q_raised(params, lo, hi):
    # ln q_k + 1e-10 for every k >= 1
    log_q = _LOG_Q(params, lo, hi)
    log_q[max(1 - lo, 0):] += 1e-10
    return log_q


def _cat_norm_log1p_only(s2, c2, half_n, gamma_t):
    # d^(N/2) always through log1p(d - 1), a math domain error where d - 1
    # rounds to -1 (eps = pi/2, gamma_t > ~18.4)
    return math.exp(half_n * math.log1p(s2 * math.expm1(-2.0 * gamma_t)))


def _one_minus_c_half_angle(params):
    # 2 sin^2(eps/2) at every eps: up to 1.9 ulp off where cos(eps) <= 1/2
    return 2.0 * math.sin(params.epsilon / 2.0) ** 2


def _report_upper_exact_scaled(params):
    rep = _BUILD_REPORT(params)
    return rep._replace(n_distill_upper_exact=rep.n_distill_upper_exact * _SCALE)


Defect = namedtuple("Defect", "name target replacement max_n failing_rows gap", defaults=(None,))

DEFECTS = [
    Defect("ghz_mask_bits_reversed", "catsize.oracle.ghz_fidelities",
           _mask_bits_reversed, 2, {"protocol_ghz_fidelity"}),
    Defect("branches_unnormalized", "catsize.oracle.enumerate_protocol",
           _probabilities_of_one, 2, {"protocol_ghz_fidelity"}),
    Defect("cat_amplitudes_unit_norm", "catsize.oracle.cat_amplitudes",
           _unit_norm_amplitudes, 2, {"cat_state_normalization"}),
    Defect("ghz_sign_flipped", "catsize.oracle.build_ghz_state",
           _ghz_minus, 2, {"ghz_reduction_at_eps_half_pi"}),
    Defect("rho1_offdiag_sign_flipped", "catsize.validation.reduced_rho1",
           _rho1_offdiag_flipped, 2, {"reduced_rho1_vs_partial_trace"}),
    Defect("failure_filter_skipped", "catsize.oracle.apply_one_qubit",
           _filter_skipped, 2, {"residual_factorization"}),
    Defect("q0_without_factor_2", "catsize.distillation._log_q",
           _q0_without_factor_2, 2, {"protocol_distribution"}),
    Defect("channel_without_rotation", "catsize.oracle.apply_product_channel",
           _channel_without_rotation, 2,
           {"decoherence_closed_form_dephasing", "decoherence_closed_form_depolarizing"}),
    # the gaps: each 1 + 1e-10 scaling lies inside its row's tolerance, or
    # no row reads the value
    Defect("cat_offdiag_norm_scaled", "catsize.decoherence.cat_offdiag_norm",
           _scaled(decoherence.cat_offdiag_norm), 2,
           {"decoherence_closed_form_dephasing", "decoherence_closed_form_depolarizing"},
           "item 3: tolerances derived from error bounds"),
    Defect("cat_loss_suppression_scaled", "catsize.loss.cat_loss_suppression",
           _scaled(loss.cat_loss_suppression), 2, {"loss_subset_expectation"},
           "item 3: tolerances derived from error bounds"),
    Defect("log_q_raised", "catsize.distillation._log_q",
           _log_q_raised, 2, {"protocol_distribution"},
           "item 3: q_k compared relatively or in ln q"),
    Defect("q0_without_factor_2_where_c_n_underflows", "catsize.distillation._log_q",
           _q0_without_factor_2_where_c_n_underflows, 2, {"protocol_distribution"},
           "item 4: an exact protocol oracle past 8 qubits"),
    Defect("cat_norm_log1p_only", "catsize.decoherence._cat_norm",
           _cat_norm_log1p_only, 2,
           {"decoherence_closed_form_dephasing", "decoherence_closed_form_depolarizing"},
           "item 3: grid edges, gamma_t up to about 20 at eps = pi/2"),
    Defect("one_minus_c_half_angle", "catsize.core.CatParams.one_minus_c",
           property(_one_minus_c_half_angle), 2, {"decimal_expected_n"},
           "item 5: a decimal reference for the scalar closed forms"),
    Defect("report_upper_exact_scaled", "catsize.report.build_effective_size_report",
           _report_upper_exact_scaled, 2, {"n_distill_upper_exact"},
           "item 3: validate reads every number the report prints"),
    Defect("effective_size_decoherence_scaled", "catsize.decoherence.effective_size_decoherence",
           _scaled(decoherence.effective_size_decoherence), 2, {"n_decoherence"},
           "item 3: an n_decoherence row"),
    Defect("effective_size_loss_scaled", "catsize.loss.effective_size_loss",
           _scaled(loss.effective_size_loss), 2, {"n_loss"},
           "item 3: an n_loss row"),
]


@pytest.mark.parametrize("defect", [
    pytest.param(d, id=d.name,
                 marks=pytest.mark.xfail(strict=True, reason=d.gap) if d.gap else ())
    for d in DEFECTS
])
def test_validate_fails_exactly_the_rows_of_each_defect(monkeypatch, defect):
    monkeypatch.setattr(defect.target, defect.replacement)
    failed = {r.name for r in run_validation(defect.max_n) if not r.passed}
    assert failed == defect.failing_rows
