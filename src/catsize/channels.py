"""Single-qubit decoherence channels and the 2x2 trace norm.

Two completely positive trace-preserving maps are supported, both at a
dimensionless time gamma_t with mu = exp(-gamma_t):

  dephasing:     E(rho) = p0 rho + (1 - p0) sz rho sz,  p0 = (1 + mu)/2.
                 Diagonal entries fixed, off-diagonal entries scaled by mu.
  depolarizing:  E(rho) = sum_i p_i si rho si with p0 = (3 mu + 1)/4 and
                 p1 = p2 = p3 = (1 - mu)/4; equivalently the linear map
                 X -> mu X + (1 - mu) tr(X) I/2.

Each channel carries both a Kraus representation (used by the brute-force
oracle) and the closed-form linear action (the fast path); a test asserts
the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEPHASING",
    "DEPOLARIZING",
    "CHANNEL_KINDS",
    "ChannelSpec",
    "apply_channel",
    "trace_norm",
    "singular_values_2x2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
]

DEPHASING = "dephasing"
DEPOLARIZING = "depolarizing"
CHANNEL_KINDS = (DEPHASING, DEPOLARIZING)

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class ChannelSpec:
    """A single-qubit CP map of the given kind at dimensionless time gamma_t."""

    kind: str
    gamma_t: float

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(
                f"kind must be one of {CHANNEL_KINDS}, got {self.kind!r}"
            )
        if not (self.gamma_t >= 0.0):
            raise ValueError(f"gamma_t must be >= 0, got {self.gamma_t!r}")
        object.__setattr__(self, "gamma_t", float(self.gamma_t))

    @property
    def mu(self) -> float:
        """exp(-gamma_t), in (0, 1]."""
        return math.exp(-self.gamma_t)

    def kraus_operators(self) -> list[np.ndarray]:
        """Kraus set {K_k} with sum K_k^dag K_k = identity."""
        mu = self.mu
        if self.kind == DEPHASING:
            p0 = (1.0 + mu) / 2.0
            return [
                math.sqrt(p0) * IDENTITY_2,
                math.sqrt(1.0 - p0) * PAULI_Z,
            ]
        p0 = (3.0 * mu + 1.0) / 4.0
        p = (1.0 - mu) / 4.0
        return [
            math.sqrt(p0) * IDENTITY_2,
            math.sqrt(p) * PAULI_X,
            math.sqrt(p) * PAULI_Y,
            math.sqrt(p) * PAULI_Z,
        ]

    def choi_matrix(self) -> np.ndarray:
        """4x4 Choi matrix sum_ij E(|i><j|) (x) |i><j| of the closed-form action."""
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                dyad = np.zeros((2, 2), dtype=complex)
                dyad[i, j] = 1.0
                choi += np.kron(apply_channel(self, dyad), dyad)
        return choi


def _as_2x2(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {x.shape}")
    return x


def _norm_invariants(x) -> tuple[float, float]:
    # T = ||X||_F^2 = s1^2 + s2^2 and D = |det X| = s1 s2
    x = _as_2x2(x)
    t = float(np.sum(np.abs(x) ** 2))
    d = abs(x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0])
    return t, d


def apply_channel(ch: ChannelSpec, x: np.ndarray) -> np.ndarray:
    """Closed-form channel action on an arbitrary 2x2 operator.

    The maps are linear on all operators, Hermitian or not; the
    depolarizing action is the linear extension X -> mu X + (1-mu) tr(X) I/2
    of the basis-dyad rule.
    """
    x = _as_2x2(x)
    mu = ch.mu
    if ch.kind == DEPHASING:
        out = x.copy()
        out[0, 1] *= mu
        out[1, 0] *= mu
        return out
    return mu * x + (1.0 - mu) * np.trace(x) * IDENTITY_2 / 2.0


def singular_values_2x2(x: np.ndarray) -> tuple[float, float]:
    """Singular values (s1 >= s2 >= 0) of a 2x2 complex matrix, closed form.

    Uses the two invariants s1^2 + s2^2 = ||X||_F^2 and s1 s2 = |det X|:
        s1,2 = sqrt((T +- sqrt(T^2 - 4 D^2)) / 2),  T = ||X||_F^2, D = |det X|.
    """
    t, d = _norm_invariants(x)
    disc = math.sqrt(max(t * t - 4.0 * d * d, 0.0))
    s1 = math.sqrt(max((t + disc) / 2.0, 0.0))
    s2 = math.sqrt(max((t - disc) / 2.0, 0.0))
    return s1, s2


def trace_norm(x: np.ndarray) -> float:
    """||X||_1 = tr sqrt(X^dag X), the sum of singular values of a 2x2 matrix.

    (s1 + s2)^2 = ||X||_F^2 + 2 |det X|, so no SVD is needed.
    """
    t, d = _norm_invariants(x)
    return math.sqrt(max(t + 2.0 * d, 0.0))
