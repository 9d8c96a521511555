"""Off-diagonal suppression under random qubit loss and the loss-matched size.

With every qubit lost independently with probability lam, the GHZ
off-diagonal element survives only when no qubit is lost:

    E[suppression] = (1 - lam)^n.

Tracing out k qubits of the cat state multiplies its off-diagonal block by
cos(eps)^k, so the binomial expectation over loss patterns is exact:

    E[suppression] = (1 - lam (1 - cos eps))^N.

Matching the suppression rates at lam -> 0 gives the loss-based effective
size n_eff = N (1 - cos eps) ~ N eps^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CatParams, _check_grid, _check_positive_int
from .serialize import csv_text

__all__ = [
    "LossModel",
    "LossCurve",
    "ghz_loss_suppression",
    "cat_loss_suppression",
    "effective_size_loss",
    "loss_curve",
]


@dataclass(frozen=True)
class LossModel:
    """Per-qubit loss probability lam in [0, 1]."""

    lam: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"loss probability must lie in [0, 1], got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))


def ghz_loss_suppression(n: int, loss: LossModel) -> float:
    """Expected off-diagonal element relative to no loss: (1 - lam)^n."""
    n = _check_positive_int(n, "n")
    if loss.lam == 1.0:
        return 0.0
    return math.exp(float(n) * math.log1p(-loss.lam))


def cat_loss_suppression(params: CatParams, loss: LossModel) -> float:
    """Expected off-diagonal suppression (1 - lam (1 - cos eps))^N, log domain.

    At lam = 1 the value is cos(eps)^N: every qubit is traced out and each
    contributes one factor of the branch overlap.
    """
    if loss.lam == 1.0:
        return math.exp(params.log_cN)
    shrink = loss.lam * params.one_minus_c
    if shrink <= 0.5:
        log_base = math.log1p(-shrink)
    else:
        # rewrite 1 - lam (1 - c) = (1 - lam) + lam c: both terms nonnegative,
        # so no cancellation where log1p's argument would approach -1
        base = (1.0 - loss.lam) + loss.lam * params.c_eps
        if base <= 0.0:
            return 0.0
        log_base = math.log(base)
    return math.exp(params.N * log_base)


def effective_size_loss(params: CatParams) -> float:
    """Effective GHZ size by loss-rate matching at lam -> 0: N (1 - cos eps)."""
    return params.N * params.one_minus_c


@dataclass(frozen=True)
class LossCurve:
    """Tabulated suppressions on a lam grid."""

    lambdas: tuple[float, ...]
    ghz_suppression: tuple[float, ...]
    cat_suppression: tuple[float, ...]

    def to_csv(self) -> str:
        """CSV with header ``lambda,ghz_suppression,cat_suppression``."""
        rows = zip(self.lambdas, self.ghz_suppression, self.cat_suppression)
        return csv_text("lambda,ghz_suppression,cat_suppression", rows)


def loss_curve(params: CatParams, n_ref: int, lambdas) -> LossCurve:
    """Evaluate both suppression curves on a lam grid in [0, 1]."""
    n_ref = _check_positive_int(n_ref, "n_ref")
    lams = _check_grid(lambdas, "lambda grid")
    if lams[-1] > 1.0:
        raise ValueError("lambda grid must lie in [0, 1]")
    ghz = tuple(ghz_loss_suppression(n_ref, LossModel(l)) for l in lams)
    cat = tuple(cat_loss_suppression(params, LossModel(l)) for l in lams)
    return LossCurve(lambdas=lams, ghz_suppression=ghz, cat_suppression=cat)
