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

from .core import (
    CHANNEL_KINDS,
    DEPHASING,
    CatParams,
    _check_gamma_t,
    _check_grid,
    _check_positive_int,
)
from .serialize import csv_text

__all__ = [
    "DecayCurve",
    "ghz_offdiag_norm",
    "cat_offdiag_norm",
    "effective_size_decoherence",
    "decay_curve",
]


def ghz_offdiag_norm(n: int, gamma_t: float) -> float:
    """Scaled off-diagonal trace norm exp(-n gamma_t) of an n-qubit GHZ state."""
    n = _check_positive_int(n, "n")
    return math.exp(-float(n) * _check_gamma_t(gamma_t))


def _log_cat_offdiag_norm(params: CatParams, gamma_t: float) -> float:
    # (N/2) ln d with d - 1 = s^2 (exp(-2 gamma_t) - 1); the log1p/expm1 pair
    # keeps full precision for small eps and small gamma_t.  Where d < 1/2,
    # d = c^2 + s^2 exp(-2 gamma_t) is a sum of nonnegative terms instead:
    # at eps = pi/2, s^2 rounds to 1 and expm1 to -1 once gamma_t > ~18.4.
    s2 = params.s_eps**2
    shrink = s2 * math.expm1(-2.0 * gamma_t)
    if shrink >= -0.5:
        return 0.5 * params.N * math.log1p(shrink)
    return 0.5 * params.N * math.log(params.c_eps**2 + s2 * math.exp(-2.0 * gamma_t))


def cat_offdiag_norm(
    params: CatParams, gamma_t: float, kind: str = DEPHASING
) -> float:
    """Scaled off-diagonal trace norm d^(N/2) of the cat state.

    The value is the same for both channel kinds.  kind stays because the
    callers that check this closed form against dense evolution --
    ``validate``'s ``decoherence_closed_form_<kind>`` rows and acceptance
    criteria 1 and 2 -- pass the kind they evolved with, so each row names
    the channel it covers and an unknown kind is refused here.
    """
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"kind must be one of {CHANNEL_KINDS}, got {kind!r}")
    return math.exp(_log_cat_offdiag_norm(params, _check_gamma_t(gamma_t)))


def effective_size_decoherence(params: CatParams) -> float:
    """Effective GHZ size by decay-rate matching at t -> 0+: N sin(eps)^2."""
    return params.N * params.s_eps**2


@dataclass(frozen=True)
class DecayCurve:
    """Tabulated off-diagonal norms on a gamma_t grid, both starting at 1."""

    times: tuple[float, ...]
    ghz_norm: tuple[float, ...]
    cat_norm: tuple[float, ...]

    def to_csv(self) -> str:
        """CSV with header ``gamma_t,ghz_norm,cat_norm`` in that column order."""
        rows = zip(self.times, self.ghz_norm, self.cat_norm)
        return csv_text("gamma_t,ghz_norm,cat_norm", rows)


def decay_curve(params: CatParams, n_ref: int, grid) -> DecayCurve:
    """Evaluate both decay curves on a gamma_t grid.

    The grid must be finite, sorted ascending, contain no negative entries
    and start at 0 (so both curves start at exactly 1).
    """
    n_ref = _check_positive_int(n_ref, "n_ref")
    times = _check_grid(grid, "gamma_t grid")
    if times[0] != 0.0:
        raise ValueError("grid must start at gamma_t = 0")
    ghz = tuple(ghz_offdiag_norm(n_ref, t) for t in times)
    cat = tuple(cat_offdiag_norm(params, t) for t in times)
    return DecayCurve(times=times, ghz_norm=ghz, cat_norm=cat)
