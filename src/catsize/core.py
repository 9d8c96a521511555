"""Parameterization and single-copy properties of N-qubit cat-like states.

The states treated by this package are two-branch product superpositions

    |psi> = (|phi1>^(x)N + |phi2>^(x)N) / sqrt(K),

where the single-qubit branches are parameterized by an angle epsilon:

    |phi1> = |0>,   |phi2> = cos(eps)|0> + sin(eps)|1>,

so that <phi1|phi2> = cos(eps) and the branch overlap is cos(eps)^(2N).
epsilon = pi/2 reduces to an ideal N-qubit GHZ state, epsilon = 0 to a
product state.

All powers of cos(eps) are carried in log domain: the regimes of interest
(N up to 1e7, eps down to 1e-3 and below) underflow double precision if
powers are formed by repeated multiplication.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CatParams",
    "phi_vectors",
    "branch_dyad",
    "term_overlap",
    "log_term_overlap",
    "normalization_constant",
    "reduced_rho1",
    "entropy_s1",
    "entropy_bits_2x2",
    "check_density_2x2",
]

HALF_PI = math.pi / 2.0


def _check_positive_int(value, name: str) -> int:
    """value as a Python int; ValueError unless it is an integer >= 1 (bools rejected)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _check_grid(grid, name: str) -> np.ndarray:
    """grid as a float array; ValueError unless 1-D, non-empty, finite, >= 0 and sorted."""
    values = np.asarray(grid, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    if np.any(values < 0.0):
        raise ValueError(f"{name} contains negative values")
    if np.any(np.diff(values) < 0.0):
        raise ValueError(f"{name} must be sorted ascending")
    return values


@dataclass(frozen=True)
class CatParams:
    """Number of qubits N and branch angle epsilon in [0, pi/2] radians."""

    N: int
    epsilon: float

    def __post_init__(self) -> None:
        n = _check_positive_int(self.N, "N")
        if n > sys.float_info.max:  # every closed form multiplies N into a double
            raise ValueError(f"N must not exceed the largest double, got {n.bit_length()} bits")
        if not (0.0 <= self.epsilon <= HALF_PI):
            raise ValueError(
                f"epsilon must lie in [0, pi/2], got {self.epsilon!r}"
            )
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def c_eps(self) -> float:
        """cos(epsilon), the single-qubit branch overlap <phi1|phi2>."""
        return math.cos(self.epsilon)

    @property
    def s_eps(self) -> float:
        """sin(epsilon)."""
        return math.sin(self.epsilon)

    @property
    def one_minus_c(self) -> float:
        # 1 - cos(eps) via the half-angle form; the naive difference loses
        # all precision for eps ~ 1e-8.  Clamped: rounding can push the
        # half-angle form one ulp past 1 at eps = pi/2.
        return min(2.0 * math.sin(self.epsilon / 2.0) ** 2, 1.0)

    @property
    def log_c(self) -> float:
        """ln cos(epsilon), accurate at both ends of the angle range."""
        omc = self.one_minus_c
        if omc < 0.5:
            return math.log1p(-omc)
        return math.log(self.c_eps)

    @property
    def log_cN(self) -> float:
        """N * ln cos(epsilon)."""
        return self.N * self.log_c


def phi_vectors(params: CatParams) -> tuple[np.ndarray, np.ndarray]:
    """The two single-qubit branch vectors (|phi1>, |phi2>)."""
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([params.c_eps, params.s_eps], dtype=complex)
    return phi1, phi2


def branch_dyad(params: CatParams) -> np.ndarray:
    """The single-qubit off-diagonal dyad |phi1><phi2| = c|0><0| + s|0><1|."""
    return np.array(
        [[params.c_eps, params.s_eps], [0.0, 0.0]], dtype=complex
    )


def log_term_overlap(params: CatParams) -> float:
    """ln of |<phi1|phi2>|^(2N) = 2N ln cos(eps).

    Structured so that log_term_overlap(N, eps) is exactly
    N * log_term_overlap(1, eps) in floating point.
    """
    return params.N * (2.0 * params.log_c)


def term_overlap(params: CatParams) -> float:
    """Overlap of the two N-qubit branches, cos(eps)^(2N), in [0, 1].

    Underflows gracefully to 0.0 for large N; use log_term_overlap when
    the log is needed.
    """
    return math.exp(log_term_overlap(params))


def normalization_constant(params: CatParams) -> float:
    """K = ||phi1^(x)N + phi2^(x)N||^2 = 2 (1 + cos(eps)^N), in [2, 4]."""
    return 2.0 * (1.0 + math.exp(params.log_cN))


def reduced_rho1(params: CatParams) -> np.ndarray:
    """Reduced density operator of one qubit of the normalized cat state.

    rho1 = [ (1 + c^2 + 2 c^N) |0><0|
             + s c (1 + c^(N-2)) (|0><1| + |1><0|)
             + s^2 |1><1| ] / (2 + 2 c^N)

    Requires N >= 2 (the c^(N-2) term).
    """
    if params.N < 2:
        raise ValueError("reduced_rho1 requires N >= 2")
    c, s = params.c_eps, params.s_eps
    cN = math.exp(params.log_cN)
    cNm2 = math.exp((params.N - 2) * params.log_c)
    k = 2.0 + 2.0 * cN
    off = s * c * (1.0 + cNm2) / k
    return np.array(
        [[(1.0 + c * c + 2.0 * cN) / k, off], [off, s * s / k]]
    )


def _binary_entropy_bits(lam_minus: float, disc: float) -> float:
    # entropy of eigenvalues {(1-disc)/2, (1+disc)/2} given the smaller one
    # explicitly, stable when lam_minus is tiny
    s = 0.0
    if lam_minus > 0.0:
        s -= lam_minus * math.log2(lam_minus)
    s += 0.5 * (1.0 + disc) * (-math.log1p(-lam_minus)) / math.log(2.0)
    return s


def entropy_s1(params: CatParams) -> float:
    """Von Neumann entropy of reduced_rho1 in bits, in [0, 1].

    Eigenvalues come from the closed-form 2x2 characteristic polynomial
    with unit trace: lambda = (1 +- sqrt(1 - 4 det)) / 2.  The determinant
    simplifies to

        det rho1 = s^2 (1 - c^(2N-2)) / (2 + 2 c^N)^2,

    which is free of the catastrophic cancellation the assembled matrix
    entries suffer for small eps.
    """
    if params.N < 2:
        raise ValueError("entropy_s1 requires N >= 2")
    s2 = params.s_eps**2
    cN = math.exp(params.log_cN)
    one_minus_c2Nm2 = -math.expm1((2 * params.N - 2) * params.log_c)
    det = s2 * one_minus_c2Nm2 / (2.0 + 2.0 * cN) ** 2
    disc = math.sqrt(max(1.0 - 4.0 * det, 0.0))
    lam_minus = 2.0 * det / (1.0 + disc)
    return _binary_entropy_bits(lam_minus, disc)


def entropy_bits_2x2(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits of a 2x2 density matrix.

    Closed-form eigenvalues from trace and determinant; eigenvalues are
    clamped to [0, 1] with 0 log 0 := 0 before the p log2 p sum.
    """
    rho = np.asarray(rho)
    t = float(np.trace(rho).real)
    det = float(np.linalg.det(rho).real)
    disc = math.sqrt(max(t * t - 4.0 * det, 0.0))
    s = 0.0
    for lam in ((t - disc) / 2.0, (t + disc) / 2.0):
        lam = min(max(lam, 0.0), 1.0)
        if lam > 0.0:
            s -= lam * math.log2(lam)
    return s


def check_density_2x2(rho: np.ndarray, tol: float = 1e-12) -> None:
    """Raise if rho is not Hermitian / unit-trace / PSD within tol."""
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError("trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -tol:
        raise ValueError("matrix has a negative eigenvalue")
