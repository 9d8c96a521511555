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

import numpy as np

from .channels import CHANNEL_KINDS, DEPHASING
from .core import CatParams, _check_grid, _check_positive_int
from .serialize import csv_text

__all__ = [
    "DecayCurve",
    "ghz_offdiag_norm",
    "cat_offdiag_norm",
    "effective_size_decoherence",
    "effective_size_decoherence_fd",
    "decay_curve",
]


def ghz_offdiag_norm(n: int, gamma_t: float) -> float:
    """Scaled off-diagonal trace norm exp(-n gamma_t) of an n-qubit GHZ state."""
    n = _check_positive_int(n, "n")
    if not (gamma_t >= 0.0):
        raise ValueError(f"gamma_t must be >= 0, got {gamma_t!r}")
    return math.exp(-float(n) * gamma_t)


def _log_cat_offdiag_norm(params: CatParams, gamma_t: float) -> float:
    # (N/2) ln d with d - 1 = s^2 (exp(-2 gamma_t) - 1); the log1p/expm1 pair
    # keeps full precision for small eps and small gamma_t, and reduces to
    # -N gamma_t exactly-in-log-domain at eps = pi/2.
    s2 = params.s_eps**2
    return 0.5 * params.N * math.log1p(s2 * math.expm1(-2.0 * gamma_t))


def cat_offdiag_norm(
    params: CatParams, gamma_t: float, kind: str = DEPHASING
) -> float:
    """Scaled off-diagonal trace norm d^(N/2) of the cat state.

    The value is the same for both channel kinds; the kind argument is
    accepted (and validated) to mirror the channel-evolution call sites.
    """
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"kind must be one of {CHANNEL_KINDS}, got {kind!r}")
    if not (gamma_t >= 0.0):
        raise ValueError(f"gamma_t must be >= 0, got {gamma_t!r}")
    return math.exp(_log_cat_offdiag_norm(params, gamma_t))


def effective_size_decoherence(params: CatParams) -> float:
    """Effective GHZ size by decay-rate matching at t -> 0+: N sin(eps)^2."""
    return params.N * params.s_eps**2


def effective_size_decoherence_fd(params: CatParams, h: float = 1e-6) -> float:
    """Secondary numeric route: -(d/d gamma_t) ln cat_offdiag_norm at 0.

    Central finite difference with step h; agrees with the closed form
    N sin(eps)^2 to ~1e-6 relative for the default step.
    """
    if not (h > 0.0):
        raise ValueError("finite-difference step h must be positive")
    up = _log_cat_offdiag_norm(params, h)
    down = _log_cat_offdiag_norm(params, -h)
    return -(up - down) / (2.0 * h)


@dataclass(frozen=True)
class DecayCurve:
    """Tabulated off-diagonal norms on a gamma_t grid, both starting at 1."""

    times: np.ndarray
    ghz_norm: np.ndarray
    cat_norm: np.ndarray

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
    ghz = np.array([ghz_offdiag_norm(n_ref, t) for t in times])
    cat = np.array([cat_offdiag_norm(params, t) for t in times])
    return DecayCurve(times=times, ghz_norm=ghz, cat_norm=cat)
