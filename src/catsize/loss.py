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
the public functions check it with ``core._check_lam``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial

from .core import CatParams, Linspace, _check_grid, _check_lam, _check_positive_int
from .serialize import csv_chunks

__all__ = [
    "LossCurve",
    "ghz_loss_suppression",
    "cat_loss_suppression",
    "effective_size_loss",
    "loss_curve",
]


# The point functions below are unchecked: the public functions check their
# arguments, and loss_curve checks its grid once.


def _ghz_loss(n: int, lam: float) -> float:
    return 0.0 if lam == 1.0 else math.exp(float(n) * math.log1p(-lam))


def ghz_loss_suppression(n: int, lam: float) -> float:
    """Expected off-diagonal element relative to no loss: (1 - lam)^n, lam in [0, 1]."""
    return _ghz_loss(_check_positive_int(n, "n"), _check_lam(lam))


def _cat_consts(params: CatParams) -> tuple[int, float, float, float]:
    # the leading arguments of _cat_loss
    return params.N, params.one_minus_c, params.c_eps, params.log_cN


def _cat_loss(n: int, omc: float, c: float, log_cn: float, lam: float) -> float:
    """(1 - lam omc)^n in log domain, with omc = 1 - cos(eps), c = cos(eps), log_cn = n ln c."""
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


def cat_loss_suppression(params: CatParams, lam: float) -> float:
    """Expected off-diagonal suppression (1 - lam (1 - cos eps))^N, log domain.

    At lam = 1 the value is cos(eps)^N: every qubit is traced out and each
    contributes one factor of the branch overlap.
    """
    return _cat_loss(*_cat_consts(params), _check_lam(lam))


def effective_size_loss(params: CatParams) -> float:
    """Effective GHZ size by loss-rate matching at lam -> 0: N (1 - cos eps)."""
    return params.N * params.one_minus_c


class LossCurve(namedtuple("LossCurve", "params n_ref lambdas")):
    """Suppressions of the GHZ reference (n_ref qubits) and the cat state on
    the lam grid lambdas, a Linspace from 0 to at most 1.

    to_csv is the one way to read it: the rows are computed as its text is
    consumed, so a long curve is never held in memory.
    """

    __slots__ = ()

    def to_csv(self):
        """CSV with header ``lambda,ghz_suppression,cat_suppression``, as a
        stream of text chunks.

        The rows are computed and formatted block by block as the chunks
        are read; ``"".join(curve.to_csv())`` is the whole text.
        """
        ghz = map(partial(_ghz_loss, self.n_ref), self.lambdas)
        cat = map(partial(_cat_loss, *_cat_consts(self.params)), self.lambdas)
        header = "lambda,ghz_suppression,cat_suppression"
        return csv_chunks(header, "%.17g,%.17g,%.17g\n", zip(self.lambdas, ghz, cat))


def loss_curve(params: CatParams, n_ref: int, lambdas: Linspace) -> LossCurve:
    """Both suppression curves on the lam grid Linspace(lambda_max, steps),
    lambda_max <= 1.

    The grid is checked here, once; the points are not checked again one
    by one.
    """
    n_ref = _check_positive_int(n_ref, "n_ref")
    lambdas = _check_grid(lambdas, "lambda grid")
    if lambdas.endpoint > 1.0:
        raise ValueError(f"lambda grid must lie in [0, 1], got endpoint {lambdas.endpoint!r}")
    return LossCurve(params=params, n_ref=n_ref, lambdas=lambdas)
