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

The scalar closed forms need only the standard library; reduced_rho1,
the one array-valued form, imports numpy when called, so importing this
module loads no numpy.  CatParams, like every record of the package, is a
``collections.namedtuple`` subclass that checks its fields in ``__new__``.
``collections`` is loaded when the interpreter starts, so the records load
no module; the standard library's record decorator would load ``inspect``
and with it ``ast``, ``dis`` and ``tokenize``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import chain
from numbers import Integral
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CatParams",
    "Linspace",
    "normalization_constant",
    "reduced_rho1",
    "entropy_s1",
    "expected_n",
]

HALF_PI = math.pi / 2.0


def _got(value) -> str:
    # a refused value as its message shows it: repr raises past 4300 digits
    bits = int(value).bit_length() if isinstance(value, Integral) else 0
    return f"a {bits}-bit integer" if bits > 64 else repr(value)


def _check_int(value, name: str, lo: int = 1, hi: float = sys.float_info.max) -> int:
    """value as a Python int; ValueError unless an integer (bools rejected) in [lo, hi]."""
    if isinstance(value, Integral) and not isinstance(value, bool) and lo <= value <= hi:
        return int(value)
    raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {_got(value)}")


def _check_real(value, name: str, lo: float = 0.0, hi: float = math.inf) -> float:
    """value as a Python float; ValueError unless lo <= value <= hi (NaN rejected).

    The float conversion makes an overflowing product such as -2 gamma_t
    round to -inf quietly, where a numpy scalar would warn.  An int past
    the largest double is refused, also where hi is inf.
    """
    if lo <= value <= hi:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must lie in [{lo}, {hi}], got {_got(value)}")


class Linspace:
    """The grid of steps points from 0 to endpoint, computed as it is read.

    Bit for bit np.linspace(0.0, endpoint, steps): point i is i * step with
    step = endpoint / (steps - 1), or (i / (steps - 1)) * endpoint where
    step underflows to 0, and the last point is exactly endpoint.  With
    endpoint finite and > 0 every point is finite and >= 0, and the points
    rise with i up to the last step, which a curve checks when it is made.
    """

    def __init__(self, endpoint: float, steps: int) -> None:
        # (5e-324, the largest double) is (0, inf) for doubles
        self.endpoint = _check_real(endpoint, "grid endpoint", lo=5e-324, hi=sys.float_info.max)
        self._div = _check_int(steps, "steps", lo=2, hi=sys.maxsize) - 1
        self._step = self.endpoint / self._div

    def __len__(self) -> int:
        return self._div + 1

    def __eq__(self, other):
        if not isinstance(other, Linspace):
            return NotImplemented
        return (self.endpoint, len(self)) == (other.endpoint, len(other))

    def __hash__(self) -> int:
        return hash((self.endpoint, len(self)))

    def __iter__(self):
        div, step, end = self._div, self._step, self.endpoint
        if step:
            head = map(step.__rmul__, range(div))  # i * step
        else:
            head = map(end.__rmul__, map(div.__rtruediv__, range(div)))  # (i / div) * end
        return chain(head, (end,))


class CatParams(namedtuple("CatParams", "N epsilon")):
    """Number of qubits N and branch angle epsilon in [0, pi/2] radians.

    An immutable record compared and hashed by value; N is stored as a
    Python int and epsilon as a Python float, both checked when it is made;
    an epsilon of -0.0 is stored as 0.0.
    """

    __slots__ = ()

    def __new__(cls, N: int, epsilon: float) -> CatParams:
        n = _check_int(N, "N")
        return super().__new__(cls, n, _check_real(epsilon, "epsilon", hi=HALF_PI) + 0.0)

    # _replace builds through _make, which would skip the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

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
        # 1 - cos(eps): below 1/2 via the half-angle form, since the naive
        # difference loses all precision for eps ~ 1e-8.  From 1/2 up the
        # difference: there cos(eps) <= 1/2, whose rounding is at most a
        # quarter ulp of the result, so it is within 0.75 ulp, where the
        # half-angle form is off by up to 1.9.
        omc = 2.0 * math.sin(self.epsilon / 2.0) ** 2
        return omc if omc < 0.5 else 1.0 - self.c_eps

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


class _Curve(namedtuple("_Curve", "params n_ref grid")):
    """A GHZ reference curve (n_ref qubits) and a cat curve on one noise grid,
    a Linspace from 0 checked when the record is made.  to_csv is the one way
    to read it: the rows are computed as its text is consumed, so a long curve
    is never held in memory.
    """

    __slots__ = ()

    def __new__(cls, params: CatParams, n_ref: int, grid: Linspace) -> _Curve:
        n_ref = _check_int(n_ref, "n_ref")
        if not isinstance(grid, Linspace):
            raise TypeError(f"{cls._grid_name} must be a Linspace, got {type(grid).__name__}")
        # a subnormal step can round up so far that the point before the last
        # one passes the endpoint; where the step underflows to 0 none can
        if (grid._div - 1) * grid._step > grid.endpoint:
            raise ValueError(f"{cls._grid_name} must be sorted ascending")
        return super().__new__(cls, params, n_ref, grid)

    # _replace builds through _make, which would skip the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def to_csv(self):
        """CSV with the header ``_header``, as a stream of text chunks formatted
        block by block as they are read; ``"".join(curve.to_csv())`` is the text.
        """
        # imported here: the oracle imports core and must not load serialize
        from .serialize import csv_chunks

        # _points looks the point functions up when called, so a replacement is seen
        ghz, cat = self._points()
        rows = zip(self.grid, map(ghz, self.grid), map(cat, self.grid))
        return csv_chunks(self._header, "%.17g,%.17g,%.17g\n", rows)


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
    import numpy as np

    _check_int(params.N, "N", lo=2)
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
    _check_int(params.N, "N", lo=2)
    s2 = params.s_eps**2
    cN = math.exp(params.log_cN)
    # the exponent in float arithmetic: the int 2 N - 2 can exceed the largest
    # double, while the float product at worst rounds to -inf, where
    # 1 - c^(2N-2) is 1
    one_minus_c2Nm2 = -math.expm1(2.0 * ((params.N - 1) * params.log_c))
    det = s2 * one_minus_c2Nm2 / (2.0 + 2.0 * cN) ** 2
    disc = math.sqrt(max(1.0 - 4.0 * det, 0.0))
    lam_minus = 2.0 * det / (1.0 + disc)
    return _binary_entropy_bits(lam_minus, disc)


def expected_n(params: CatParams) -> float:
    """Mean number of GHZ parties distilled by the single-copy filter, (1 - c) N / (1 + c^N)."""
    return params.one_minus_c * params.N / (1.0 + math.exp(params.log_cN))
