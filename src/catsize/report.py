"""One record with every effective-size measure for a single (N, epsilon)."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .core import CatParams, entropy_s1, expected_n
from .decoherence import effective_size_decoherence
from .loss import effective_size_loss

__all__ = ["EffectiveSizeReport", "build_effective_size_report"]


@dataclass(frozen=True)
class EffectiveSizeReport:
    """Effective sizes from all methods plus the N eps^2 reference scale."""

    N: int
    epsilon: float
    n_decoherence: float
    n_distill_mean: float
    n_distill_upper_exact: float
    n_distill_upper_asymptotic: float
    n_loss: float
    reference_N_eps_sq: float

    def to_payload(self) -> dict:
        """Fields as a dict in declaration order (the JSON key order)."""
        return asdict(self)


def build_effective_size_report(params: CatParams) -> EffectiveSizeReport:
    """Aggregate every effective-size measure for one (N, epsilon)."""
    if params.N < 2:
        raise ValueError("effective-size report requires N >= 2")
    n, eps = params.N, params.epsilon
    report = EffectiveSizeReport(
        N=n,
        epsilon=eps,
        n_decoherence=effective_size_decoherence(params),
        n_distill_mean=expected_n(params),
        # N S1 bounds the mean distilled-GHZ size per copy of any asymptotic
        # multi-copy protocol
        n_distill_upper_exact=n * entropy_s1(params),
        # its small-eps, large-N eps^2 leading form; 0 at eps = 0, where
        # log2 has no value
        n_distill_upper_asymptotic=0.0 if eps == 0.0 else -n * eps * eps * math.log2(eps) / 2.0,
        n_loss=effective_size_loss(params),
        reference_N_eps_sq=n * eps**2,
    )
    # N may be as large as the largest double, and the N eps^2 scales can
    # exceed it; refuse what no JSON number can hold, naming the field
    for field in fields(report):
        value = getattr(report, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(
                f"{field.name} overflows a double at N = {params.N:.17g}, "
                f"epsilon = {params.epsilon!r}"
            )
    return report
