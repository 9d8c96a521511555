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

from .core import CatParams, Linspace, _check_int, _check_real, _Curve

__all__ = [
    "DecayCurve",
    "ghz_offdiag_norm",
    "cat_offdiag_norm",
    "effective_size_decoherence",
    "decay_curve",
]


# The point maps below are unchecked: the public functions check their
# arguments, and DecayCurve checks its grid once.


def _ghz_norm(n: int):
    """The map gamma_t -> exp(-n gamma_t)."""
    minus_n = -float(n)
    return lambda gamma_t: math.exp(minus_n * gamma_t)


def ghz_offdiag_norm(n: int, gamma_t: float) -> float:
    """Scaled off-diagonal trace norm exp(-n gamma_t) of an n-qubit GHZ state."""
    return _ghz_norm(_check_int(n, "n"))(_check_real(gamma_t, "gamma_t"))


def _cat_norm(params: CatParams):
    """The map gamma_t -> d^(N/2), d = c2 + s2 exp(-2 gamma_t), s2 = sin(eps)^2, c2 = cos(eps)^2.

    d - 1 = s2 (exp(-2 gamma_t) - 1); the log1p/expm1 pair keeps full
    precision for small eps and small gamma_t.  Where d < 1/2, d is taken
    as the sum of nonnegative terms instead: at eps = pi/2, s2 rounds to 1
    and expm1 to -1 once gamma_t > ~18.4.
    """
    s2, c2, half_n = params.s_eps**2, params.c_eps**2, 0.5 * params.N

    def norm(gamma_t: float) -> float:
        shrink = s2 * math.expm1(-2.0 * gamma_t)
        if shrink >= -0.5:
            return math.exp(half_n * math.log1p(shrink))
        return math.exp(half_n * math.log(c2 + s2 * math.exp(-2.0 * gamma_t)))

    return norm


def cat_offdiag_norm(params: CatParams, gamma_t: float) -> float:
    """Scaled off-diagonal trace norm d^(N/2) of the cat state.

    The value is the same for the dephasing and the depolarizing channel,
    so it takes no channel kind: ``validate``'s
    ``decoherence_closed_form_<kind>`` rows and acceptance criterion 1
    compare the block evolved under each kind with this one value.
    """
    return _cat_norm(params)(_check_real(gamma_t, "gamma_t"))


def effective_size_decoherence(params: CatParams) -> float:
    """Effective GHZ size by decay-rate matching at t -> 0+: N sin(eps)^2."""
    return params.N * params.s_eps**2


class DecayCurve(_Curve):
    """Off-diagonal norms of the GHZ reference (n_ref qubits) and the cat
    state on the gamma_t grid, a Linspace from 0, so both start at 1."""

    __slots__ = ()
    _header = "gamma_t,ghz_norm,cat_norm"
    _grid_name = "gamma_t grid"

    def _points(self):
        return _ghz_norm(self.n_ref), _cat_norm(self.params)


def decay_curve(params: CatParams, n_ref: int, grid: Linspace) -> DecayCurve:
    """Both decay curves on the gamma_t grid Linspace(gamma_t_max, steps)."""
    return DecayCurve(params, n_ref, grid)
