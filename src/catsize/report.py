"""One record with every effective-size measure for a single (N, epsilon).

The record is a namedtuple: its fields, in declaration order, are the keys
of the JSON report, and ``to_payload`` is its ``_asdict``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import CatParams, _check_int, entropy_s1, expected_n
from .decoherence import effective_size_decoherence
from .loss import effective_size_loss

__all__ = ["EffectiveSizeReport", "build_effective_size_report"]


class EffectiveSizeReport(namedtuple("EffectiveSizeReport", [
    "N",
    "epsilon",
    "n_decoherence",
    "n_distill_mean",
    "n_distill_upper_exact",
    "n_distill_upper_asymptotic",
    "n_loss",
    "reference_N_eps_sq",
])):
    """Effective sizes from all methods plus the N eps^2 reference scale."""

    __slots__ = ()

    def to_payload(self) -> dict:
        """Fields as a dict in declaration order (the JSON key order)."""
        return self._asdict()


def build_effective_size_report(params: CatParams) -> EffectiveSizeReport:
    """Aggregate every effective-size measure for one (N, epsilon)."""
    _check_int(params.N, "N", lo=2)
    n, eps = params.N, params.epsilon
    report = EffectiveSizeReport(
        N=n,
        epsilon=eps,
        n_decoherence=effective_size_decoherence(params),
        n_distill_mean=expected_n(params),
        # N S1 bounds the mean distilled-GHZ size per copy of any asymptotic
        # multi-copy protocol
        n_distill_upper_exact=n * entropy_s1(params),
        # its small-eps leading-log form, negative for eps > 1 rad where
        # log2(eps) > 0; 0 at eps = 0, where log2 has no value
        n_distill_upper_asymptotic=0.0 if eps == 0.0 else -n * eps * eps * math.log2(eps) / 2.0,
        n_loss=effective_size_loss(params),
        reference_N_eps_sq=n * eps**2,
    )
    # N may be as large as the largest double, and the N eps^2 scales can
    # exceed it; refuse what no JSON number can hold, naming the field
    for name, value in zip(report._fields, report):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(
                f"{name} overflows a double at N = {params.N:.17g}, "
                f"epsilon = {params.epsilon!r}"
            )
    return report
