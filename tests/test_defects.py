"""Known defects, each kept as a test of the ``validate`` row meant to catch it.

Every entry of ``DEFECTS`` puts one defect into the running code by
replacing one ``catsize`` module attribute, named by its dotted path,
through ``monkeypatch``; no file is edited.
The test then runs the validation suite in process at the entry's
``--max-n`` and asserts that exactly the listed rows fail.  A change that
weakens a row so that its defect gets through fails here.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from catsize import distillation, oracle, validation
from catsize.validation import run_validation

_GHZ_FIDELITIES = oracle.ghz_fidelities
_ENUMERATE_PROTOCOL = oracle.enumerate_protocol
_CAT_AMPLITUDES = oracle.cat_amplitudes
_BUILD_GHZ_STATE = oracle.build_ghz_state
_REDUCED_RHO1 = validation.reduced_rho1
_LOG_Q = distillation._log_q


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


Defect = namedtuple("Defect", "name target replacement max_n failing_rows")

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
]


@pytest.mark.parametrize("defect", DEFECTS, ids=[d.name for d in DEFECTS])
def test_validate_fails_exactly_the_rows_of_each_defect(monkeypatch, defect):
    monkeypatch.setattr(defect.target, defect.replacement)
    failed = {r.name for r in run_validation(defect.max_n) if not r.passed}
    assert failed == defect.failing_rows
