"""Off-diagonal suppression under random qubit loss and the loss-matched size.

With every qubit lost independently with probability lam, the GHZ
off-diagonal element survives only when no qubit is lost:

    E[suppression] = (1 - lam)^n.

Tracing out k qubits of the cat state multiplies its off-diagonal block by
cos(eps)^k, so the binomial expectation over loss patterns is exact:

    E[suppression] = (1 - lam (1 - cos eps))^N.

Matching the suppression rates at lam -> 0 gives the loss-based effective
size n_eff = N (1 - cos eps) ~ N eps^2 / 2.

The loss probability is a plain float, as gamma_t is in ``decoherence``;
the public functions check it with ``core._check_real``.
"""

from __future__ import annotations

import math

from .core import CatParams, Linspace, _check_int, _check_real, _Curve

__all__ = [
    "LossCurve",
    "ghz_loss_suppression",
    "cat_loss_suppression",
    "effective_size_loss",
    "loss_curve",
]


# The point maps below are unchecked: the public functions check their
# arguments, and LossCurve checks its grid once.


def _ghz_loss(n: int):
    """The map lam -> (1 - lam)^n."""
    n = float(n)
    return lambda lam: 0.0 if lam == 1.0 else math.exp(n * math.log1p(-lam))


def ghz_loss_suppression(n: int, lam: float) -> float:
    """Expected off-diagonal element relative to no loss: (1 - lam)^n, lam in [0, 1]."""
    return _ghz_loss(_check_int(n, "n"))(_check_real(lam, "lam", hi=1.0))


def _cat_loss(params: CatParams):
    """The map lam -> (1 - lam (1 - cos eps))^N, in log domain."""
    n, omc, c, log_cn = params.N, params.one_minus_c, params.c_eps, params.log_cN

    def suppression(lam: float) -> float:
        if lam == 1.0:
            return math.exp(log_cn)
        shrink = lam * omc
        if shrink <= 0.5:
            log_base = math.log1p(-shrink)
        else:
            # rewrite 1 - lam (1 - c) = (1 - lam) + lam c: both terms nonnegative,
            # so no cancellation where log1p's argument would approach -1
            base = (1.0 - lam) + lam * c
            if base <= 0.0:
                return 0.0
            log_base = math.log(base)
        return math.exp(n * log_base)

    return suppression


def cat_loss_suppression(params: CatParams, lam: float) -> float:
    """Expected off-diagonal suppression (1 - lam (1 - cos eps))^N, log domain.

    At lam = 1 the value is cos(eps)^N: every qubit is traced out and each
    contributes one factor of the branch overlap.
    """
    return _cat_loss(params)(_check_real(lam, "lam", hi=1.0))


def effective_size_loss(params: CatParams) -> float:
    """Effective GHZ size by loss-rate matching at lam -> 0: N (1 - cos eps)."""
    return params.N * params.one_minus_c


class LossCurve(_Curve):
    """Suppressions of the GHZ reference (n_ref qubits) and the cat state on
    the lam grid, a Linspace from 0 to at most 1."""

    __slots__ = ()
    _header = "lambda,ghz_suppression,cat_suppression"
    _grid_name = "lambda grid"
    _grid_hi = 1.0

    def _points(self):
        return _ghz_loss(self.n_ref), _cat_loss(self.params)


def loss_curve(params: CatParams, n_ref: int, lambdas: Linspace) -> LossCurve:
    """Both suppression curves on the lam grid Linspace(lambda_max, steps), lambda_max <= 1."""
    return LossCurve(params, n_ref, lambdas)
