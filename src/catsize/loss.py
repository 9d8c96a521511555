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

import numpy as np

from .core import CatParams, _check_grid, _check_positive_int
from .serialize import csv_text

__all__ = [
    "LossModel",
    "LossCurve",
    "ghz_loss_suppression",
    "cat_loss_suppression",
    "effective_size_loss",
    "effective_size_loss_fd",
    "loss_suppression_diagnostics",
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


def effective_size_loss_fd(params: CatParams, h: float = 1e-6) -> float:
    """Numeric route: -(d/d lam) ln cat_loss_suppression at lam = 0.

    Central finite difference with step h; the suppression formula extends
    smoothly to small negative lam.
    """
    if not (h > 0.0):
        raise ValueError("finite-difference step h must be positive")
    omc = params.one_minus_c
    up = params.N * math.log1p(-h * omc)
    down = params.N * math.log1p(h * omc)
    return -(up - down) / (2.0 * h)


def loss_suppression_diagnostics(params: CatParams, loss: LossModel) -> dict:
    """Exact expectation vs the typical-value estimate exp(-lam N (1 - cos eps)).

    The exact binomial expectation never exceeds the typical-value form;
    the ratio quantifies how peaked the loss distribution is.
    """
    exact = cat_loss_suppression(params, loss)
    typical = math.exp(-loss.lam * params.N * params.one_minus_c)
    return {
        "exact": exact,
        "typical_value": typical,
        "ratio": exact / typical if typical > 0.0 else math.inf,
    }


@dataclass(frozen=True)
class LossCurve:
    """Tabulated suppressions on a lam grid."""

    lambdas: np.ndarray
    ghz_suppression: np.ndarray
    cat_suppression: np.ndarray

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
    ghz = np.array([ghz_loss_suppression(n_ref, LossModel(l)) for l in lams])
    cat = np.array([cat_loss_suppression(params, LossModel(l)) for l in lams])
    return LossCurve(lambdas=lams, ghz_suppression=ghz, cat_suppression=cat)
