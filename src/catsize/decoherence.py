"""Off-diagonal decay under product channels and the rate-matched effective size.

For an ideal n-qubit GHZ state the off-diagonal block |0><1|^(x)n decays as

    ||a_t^(x)n||_1 = exp(-n gamma t),

while for the cat state the block |phi1><phi2|^(x)N decays as

    ||b_t^(x)N||_1 = d^(N/2),   d = cos(eps)^2 + sin(eps)^2 exp(-2 gamma t),

identically for the dephasing and the depolarizing channel.  Matching the
instantaneous decay rates at t -> 0+ assigns the cat state an effective
GHZ size

    n_eff = N sin(eps)^2   (~ N eps^2 for small eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .core import CatParams, Linspace, _check_gamma_t, _check_grid, _check_positive_int
from .serialize import csv_chunks

__all__ = [
    "DecayCurve",
    "ghz_offdiag_norm",
    "cat_offdiag_norm",
    "effective_size_decoherence",
    "decay_curve",
]


# The point functions below are unchecked: the public functions check their
# arguments, and decay_curve checks its grid once.


def _ghz_norm(n: int, gamma_t: float) -> float:
    return math.exp(-float(n) * gamma_t)


def ghz_offdiag_norm(n: int, gamma_t: float) -> float:
    """Scaled off-diagonal trace norm exp(-n gamma_t) of an n-qubit GHZ state."""
    return _ghz_norm(_check_positive_int(n, "n"), _check_gamma_t(gamma_t))


def _cat_consts(params: CatParams) -> tuple[float, float, float]:
    # the leading arguments of _cat_norm
    return params.s_eps**2, params.c_eps**2, 0.5 * params.N


def _cat_norm(s2: float, c2: float, half_n: float, gamma_t: float) -> float:
    """d^(N/2) with d = c2 + s2 exp(-2 gamma_t), s2 = sin(eps)^2, c2 = cos(eps)^2.

    d - 1 = s2 (exp(-2 gamma_t) - 1); the log1p/expm1 pair keeps full
    precision for small eps and small gamma_t.  Where d < 1/2, d is taken
    as the sum of nonnegative terms instead: at eps = pi/2, s2 rounds to 1
    and expm1 to -1 once gamma_t > ~18.4.
    """
    shrink = s2 * math.expm1(-2.0 * gamma_t)
    if shrink >= -0.5:
        return math.exp(half_n * math.log1p(shrink))
    return math.exp(half_n * math.log(c2 + s2 * math.exp(-2.0 * gamma_t)))


def cat_offdiag_norm(params: CatParams, gamma_t: float) -> float:
    """Scaled off-diagonal trace norm d^(N/2) of the cat state.

    The value is the same for the dephasing and the depolarizing channel,
    so it takes no channel kind: ``validate``'s
    ``decoherence_closed_form_<kind>`` rows and acceptance criterion 1
    compare the block evolved under each kind with this one value.
    """
    return _cat_norm(*_cat_consts(params), _check_gamma_t(gamma_t))


def effective_size_decoherence(params: CatParams) -> float:
    """Effective GHZ size by decay-rate matching at t -> 0+: N sin(eps)^2."""
    return params.N * params.s_eps**2


@dataclass(frozen=True)
class DecayCurve:
    """Off-diagonal norms of the GHZ reference (n_ref qubits) and the cat
    state on the gamma_t grid times, a Linspace from 0, so both start at 1.

    to_csv is the one way to read it: the rows are computed as its text is
    consumed, so a long curve is never held in memory.
    """

    params: CatParams
    n_ref: int
    times: Linspace

    def to_csv(self):
        """CSV with header ``gamma_t,ghz_norm,cat_norm``, as a stream of text chunks.

        The rows are computed and formatted block by block as the chunks
        are read; ``"".join(curve.to_csv())`` is the whole text.
        """
        ghz = map(partial(_ghz_norm, self.n_ref), self.times)
        cat = map(partial(_cat_norm, *_cat_consts(self.params)), self.times)
        header = "gamma_t,ghz_norm,cat_norm"
        return csv_chunks(header, "%.17g,%.17g,%.17g\n", zip(self.times, ghz, cat))


def decay_curve(params: CatParams, n_ref: int, grid: Linspace) -> DecayCurve:
    """Both decay curves on the gamma_t grid Linspace(gamma_t_max, steps).

    The grid is checked here, once; the points are not checked again one
    by one.
    """
    n_ref = _check_positive_int(n_ref, "n_ref")
    return DecayCurve(params=params, n_ref=n_ref, times=_check_grid(grid, "gamma_t grid"))
