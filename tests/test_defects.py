"""Known defects, each kept as a test of the ``validate`` row meant to catch it.

Every entry of ``DEFECTS`` puts one defect into the running code by
replacing an oracle function through ``monkeypatch``; no file is edited.
The test then runs the validation suite in process at the entry's
``--max-n`` and asserts that exactly the listed rows fail.  A change that
weakens a row so that its defect gets through fails here.
"""

from collections import namedtuple

import numpy as np
import pytest

from catsize import oracle
from catsize.validation import run_validation

_GHZ_FIDELITIES = oracle.ghz_fidelities
_ENUMERATE_PROTOCOL = oracle.enumerate_protocol


def _mask_bits_reversed(states, masks):
    # reads qubit j at bit j - 1 instead of bit n - j
    n = np.shape(states)[1].bit_length() - 1
    return _GHZ_FIDELITIES(states, [int(f"{m:0{n}b}"[::-1], 2) for m in masks])


def _probabilities_of_one(params):
    # the branches reach the fidelity unnormalized
    q, probs, branches = _ENUMERATE_PROTOCOL(params)
    return q, np.ones_like(probs), branches


Defect = namedtuple("Defect", "name target replacement max_n failing_rows")

DEFECTS = [
    Defect("ghz_mask_bits_reversed", "ghz_fidelities",
           _mask_bits_reversed, 2, {"protocol_ghz_fidelity"}),
    Defect("branches_unnormalized", "enumerate_protocol",
           _probabilities_of_one, 2, {"protocol_ghz_fidelity"}),
]


@pytest.mark.parametrize("defect", DEFECTS, ids=[d.name for d in DEFECTS])
def test_validate_fails_exactly_the_rows_of_each_defect(monkeypatch, defect):
    monkeypatch.setattr(oracle, defect.target, defect.replacement)
    failed = {r.name for r in run_validation(defect.max_n) if not r.passed}
    assert failed == defect.failing_rows
