"""Brute-force ground truth on dense state vectors and operators.

Everything here is deliberately naive: states are full 2^N amplitude
vectors, operators full 2^N x 2^N matrices, channels act on the full dense
operator through the superoperator built from their Kraus set, trace norms
come from a dense SVD, and the measurement protocol (all 2^N outcome
strings) and qubit loss (all 2^N lost subsets) are enumerated exhaustively.
The closed forms in the analysis modules are validated against these
routines; the oracle never calls them: it imports only ``core``, and from
it only the parameter type and the parameter checks.

The dense kernels (channel evolution, the trace-norm SVD, and the partial
traces and stacked SVD of the loss enumeration) compute in real arithmetic
when their operator's imaginary part is exactly 0, as every operator the
validation suite builds is, and in complex arithmetic otherwise.  A real
matrix's SVD is also a complex SVD of it, and singular values are unique,
so both paths give the same singular values up to rounding.  Channel
evolution interleaves the row and column bits once, applies the 4x4
superoperator to each qubit's slot pair in turn, one GEMM per qubit that
also rotates the next pair to the front, and restores the order once (see
``apply_product_channel``); each channel's superoperator is built and
checked once per spec and cached.  The protocol walk returns its branches
as one stacked array of unnormalized vectors, row m the outcome string of
mask m, with their probabilities and the distribution over success counts
(see ``enumerate_protocol``).  The GHZ fidelity of a branch is read from
its amplitudes, F = sum_{i & K == 0} |psi[i] + psi[i | K]|^2 / 2 with K the
branch's mask of successful qubits, for many branches in one stacked call
(see ``ghz_fidelities``).

Convention, fixed package-wide: qubit 1 is the MOST significant bit of the
amplitude index, so |b1 b2 ... bN> sits at index b1*2^(N-1) + ... + bN.

Every dense entry point checks its size by one rule, and the caps are hard
errors: 14 qubits for state vectors, 10 for dense operators, 8 for
exhaustive enumerations.  An array input has 2^n entries on each axis
(``_qubits``); a parameter input is checked on N before any 2^N is formed.

Two single-qubit channels are supported (``ChannelSpec``, of a kind in
``CHANNEL_KINDS``), both at a dimensionless time gamma_t with
mu = exp(-gamma_t):

  dephasing:     E(rho) = p0 rho + (1 - p0) sz rho sz,  p0 = (1 + mu)/2.
                 Diagonal entries fixed, off-diagonal entries scaled by mu.
  depolarizing:  E(rho) = sum_i p_i si rho si with p0 = (3 mu + 1)/4 and
                 p1 = p2 = p3 = (1 - mu)/4; equivalently the linear map
                 X -> mu X + (1 - mu) tr(X) I/2.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import combinations

import numpy as np

from .core import CatParams, _check_gamma_t, _check_lam, _check_positive_int

__all__ = [
    "DEPHASING",
    "DEPOLARIZING",
    "CHANNEL_KINDS",
    "ChannelSpec",
    "MAX_ENUM_QUBITS",
    "kron_all",
    "kron_power",
    "branch_vectors",
    "cat_amplitudes",
    "build_cat_state",
    "build_ghz_state",
    "apply_product_channel",
    "dense_trace_norm",
    "partial_trace_state",
    "apply_one_qubit",
    "biorthonormal_filter",
    "enumerate_protocol",
    "enumerate_loss",
    "ghz_fidelities",
]

MAX_STATE_QUBITS = 14
MAX_OPERATOR_QUBITS = 10
MAX_ENUM_QUBITS = 8

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# the two single-qubit channel kinds of ChannelSpec
DEPHASING = "dephasing"
DEPOLARIZING = "depolarizing"
CHANNEL_KINDS = (DEPHASING, DEPOLARIZING)


class ChannelSpec(namedtuple("ChannelSpec", "kind gamma_t")):
    """A single-qubit CP map of the given kind at dimensionless time gamma_t."""

    __slots__ = ()

    def __new__(cls, kind: str, gamma_t: float) -> ChannelSpec:
        if kind not in CHANNEL_KINDS:
            raise ValueError(f"kind must be one of {CHANNEL_KINDS}, got {kind!r}")
        return super().__new__(cls, kind, _check_gamma_t(gamma_t))

    # _replace builds through _make, which would skip the checks of __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

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


def _check_qubits(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ValueError(f"{what} capped at {cap} qubits, got {n}")


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices (identity for empty input).

    Each step multiplies the running (r, c) product and the next (rm, cm)
    factor broadcast to (r, rm, c, cm) and reshapes to (r rm, c cm): the
    products ``np.kron`` forms, bit for bit, without its per-call shape
    handling.  Every factor must be 2-D.
    """
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"kron_all takes 2-D factors, got shape {m.shape}")
        (r, c), (rm, cm) = out.shape, m.shape
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(r * rm, c * cm)
    return out


def kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a matrix."""
    return kron_all([mat] * n)


def branch_vectors(params: CatParams) -> tuple[np.ndarray, np.ndarray]:
    """(|phi1>, |phi2>) built from the raw parameters."""
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([params.c_eps, params.s_eps], dtype=complex)
    return phi1, phi2


def cat_amplitudes(params: CatParams) -> np.ndarray:
    """Unnormalized amplitudes of |phi1>^(x)N + |phi2>^(x)N."""
    _check_qubits(params.N, MAX_STATE_QUBITS, "dense state vectors")
    phi1, phi2 = branch_vectors(params)
    return (
        kron_all([phi1.reshape(2, 1)] * params.N).ravel()
        + kron_all([phi2.reshape(2, 1)] * params.N).ravel()
    )


def build_cat_state(params: CatParams) -> np.ndarray:
    """Normalized amplitudes of |phi1>^(x)N + |phi2>^(x)N."""
    vec = cat_amplitudes(params)
    return vec / np.linalg.norm(vec)


def build_ghz_state(n: int) -> np.ndarray:
    """Amplitudes of (|0...0> + |1...1>) / sqrt(2) on n qubits."""
    n = _check_positive_int(n, "n")
    _check_qubits(n, MAX_STATE_QUBITS, "dense state vectors")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return vec


def _qubits(shape: tuple, ndim: int, cap: int, what: str) -> int:
    """Qubit count n of an array of shape (2^n,) * ndim, refused above cap qubits.

    The one size check of the array entry points; the parameter entry points
    check their qubit count with ``_check_qubits`` and never form 2^N.
    """
    n = shape[0].bit_length() - 1 if shape else -1
    if shape != (2**n,) * ndim:
        raise ValueError(f"{what} need shape (2^n,) * {ndim}, 2^n a power of two, got {shape}")
    _check_qubits(n, cap, what)
    return n


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a.real`` if the imaginary part of ``a`` is exactly 0, else ``a``.

    A NaN imaginary entry is nonzero, so such an array keeps the complex path.
    """
    return a.real if not a.imag.any() else a


@functools.lru_cache(maxsize=8)
def _superoperator(ch: ChannelSpec) -> np.ndarray:
    """The 4x4 superoperator S = sum_K K (x) conj(K) of a channel, built once per spec.

    The Kraus set is checked for completeness first.  S is exactly real for
    both channel kinds (Y (x) conj(Y) has entries +-1 and 0), so it is
    returned real, and read-only because the cache shares it between calls.
    Equal specs are one cache entry.
    """
    kraus = ch.kraus_operators()
    completeness = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(completeness - np.eye(2))) > 1e-12:
        raise ValueError("Kraus set fails completeness: sum K^dag K != I")
    # S[(i k), (j l)] = sum_K K[i, j] conj(K[k, l])
    sup = _real_if_exact(sum(np.einsum("ij,kl->ikjl", k, k.conj()) for k in kraus).reshape(4, 4))
    sup.flags.writeable = False
    return sup


def apply_product_channel(op: np.ndarray, ch: ChannelSpec) -> np.ndarray:
    """Apply the single-qubit Kraus set to every qubit slot of a dense operator.

    The 2^n x 2^n operator is read as a 2n-qubit tensor (row index first):
    K op K^dag applies K to row slot q and conj(K) to column slot n + q, so
    the channel on qubit q is the 4x4 superoperator S = sum_K K (x) conj(K)
    (``_superoperator``) contracted with that (row, column) slot pair.  One
    transpose interleaves the slots to (r1 c1, r2 c2, ..., rn cn), so each
    qubit's pair is one axis of size 4.  Each step views the operator as
    (4, rest), with the leading pair first, and takes one GEMM,
    ``(out.T @ S.T)``: that applies S to the leading pair and moves it to
    the end, so after n steps every pair has had S once and the axis order
    is back to where it started.  One transpose at the end restores the
    row-then-column order.

    An operator whose imaginary part is exactly 0 is evolved in real
    arithmetic with the real S: the terms it drops are products of exact
    zeros, so it agrees with the complex path up to rounding.  The result
    is complex128 either way.
    """
    op = np.asarray(op, dtype=complex)
    n = _qubits(op.shape, 2, MAX_OPERATOR_QUBITS, "dense operators")
    sup_t = _superoperator(ch).T
    # axes (r1, ..., rn, c1, ..., cn) -> (r1, c1, ..., rn, cn) and back
    interleave = [a for q in range(n) for a in (q, n + q)]
    out = _real_if_exact(op).reshape((2,) * (2 * n)).transpose(interleave)
    for _ in range(n):
        out = out.reshape(4, -1).T @ sup_t
    out = out.reshape((2,) * (2 * n)).transpose(np.argsort(interleave))
    return out.astype(complex, order="C").reshape(op.shape)


def dense_trace_norm(op: np.ndarray) -> float:
    """Sum of singular values, from a full dense SVD.

    An operator whose imaginary part is exactly 0 is decomposed as a real
    matrix, which has the same singular values (see the module docstring).
    """
    op = np.asarray(op, dtype=complex)
    _qubits(op.shape, 2, MAX_OPERATOR_QUBITS, "dense operators")
    return float(np.linalg.svd(_real_if_exact(op), compute_uv=False).sum())


def partial_trace_state(state: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the kept qubits (0-based)."""
    state = np.asarray(state, dtype=complex).ravel()
    n = _qubits(state.shape, 1, MAX_STATE_QUBITS, "dense state vectors")
    keep = list(keep)
    if any(q < 0 or q >= n for q in keep):
        raise ValueError("kept qubit index out of range")
    rest = [q for q in range(n) if q not in keep]
    tensor = state.reshape((2,) * n)
    mat = np.transpose(tensor, keep + rest).reshape(2 ** len(keep), 2 ** len(rest))
    return mat @ mat.conj().T


def _trace_out(tensor: np.ndarray, keep: tuple) -> np.ndarray:
    # partial trace of an operator read as a 2n-qubit tensor onto the sorted
    # kept qubits, in the tensor's own dtype: row slot q is axis label q;
    # column slot q is label n + q if q is kept and label q, summed with its
    # row slot, if it is traced
    n = tensor.ndim // 2
    col = [n + q if q in keep else q for q in range(n)]
    return np.einsum(tensor, [*range(n), *col], [*keep, *(n + q for q in keep)])


def apply_one_qubit(state: np.ndarray, m: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 operator to one qubit slot of a state vector (0-based)."""
    state = np.asarray(state, dtype=complex).ravel()
    n = _qubits(state.shape, 1, MAX_STATE_QUBITS, "dense state vectors")
    if not (0 <= qubit < n):
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    cube = state.reshape(2**qubit, 2, 2 ** (n - qubit - 1))
    return np.einsum("ij,ajb->aib", np.asarray(m, dtype=complex), cube).ravel()


def biorthonormal_filter(params: CatParams) -> tuple[np.ndarray, np.ndarray]:
    """Numerically constructed filter {A, Abar}, independent of the closed form.

    A = k * Phi^(-1) where Phi has columns |phi1>, |phi2> (that is exactly
    k (|0><phi1~| + |1><phi2~|) in the biorthonormal basis), with k^2 the
    smallest eigenvalue of Phi Phi^dag so that I - A^dag A is rank one.
    Abar is the PSD square root from an eigendecomposition.  An eps whose
    k^2 (1 - cos eps) is subnormal, eps below ~2.1e-154, is refused.
    """
    if params.epsilon <= 0.0:
        raise ValueError("biorthonormal basis requires eps > 0")
    phi1, phi2 = branch_vectors(params)
    basis = np.column_stack([phi1, phi2])
    k_sq = float(np.linalg.eigvalsh(basis @ basis.conj().T)[0])
    if k_sq < np.finfo(float).tiny:
        raise ValueError(f"biorthonormal filter needs a normal k^2, got {k_sq!r}")
    a = math.sqrt(k_sq) * np.linalg.inv(basis)
    complement = np.eye(2, dtype=complex) - a.conj().T @ a
    w, v = np.linalg.eigh(complement)
    w = np.clip(w, 0.0, None)
    a_bar = (v * np.sqrt(w)) @ v.conj().T
    return a, a_bar


def enumerate_protocol(params: CatParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive Born-rule branching of the filtering protocol.

    Returns ``(q, probs, branches)``.  ``branches`` is the (2^N, 2^N) stack
    of unnormalized post-measurement vectors, one row per outcome string:
    row m is the branch of mask m, whose bit for qubit j (1-based) is
    (m >> (N - j)) & 1, set for a successful (A) outcome.  ``probs[m]`` is
    the squared norm of row m, and ``q[k]`` the sum of ``probs`` over the
    masks with k set bits.  The tree is walked level by level: the
    unnormalized vectors of all 2^j outcome prefixes of qubits 1..j are
    stacked, and two broadcast products apply qubit j's Abar and A to every
    one of them, so the walk takes N steps, not N 2^N one-qubit
    applications.  Each row is the same chain of operations as applying the
    mask's operators qubit by qubit with ``apply_one_qubit``.
    """
    n = params.N
    _check_qubits(n, MAX_ENUM_QUBITS, "exhaustive enumerations")
    a, a_bar = biorthonormal_filter(params)
    ops = np.stack([a_bar, a])  # indexed by the outcome bit: 0 fails, 1 succeeds
    # row p holds prefix p; appending qubit j + 1's outcome o as the low
    # bit, row 2 p + o, keeps the rows in mask order
    level = build_cat_state(params).reshape(1, -1)
    for j in range(n):
        cube = level.reshape(len(level), 2**j, 2, 2 ** (n - j - 1))
        # out[p, o, a, i, b] = sum_k ops[o, i, k] cube[p, a, k, b]
        out = ops[None, :, None, :, 0, None] * cube[:, None, :, None, 0, :]
        out += ops[None, :, None, :, 1, None] * cube[:, None, :, None, 1, :]
        level = out.reshape(2 * len(level), -1)
    probs = np.array([np.vdot(vec, vec).real for vec in level])
    successes = [bin(mask).count("1") for mask in range(2**n)]
    return np.bincount(successes, weights=probs, minlength=n + 1), probs, level


def ghz_fidelities(states, masks) -> np.ndarray:
    """GHZ fidelities of many branch states at once, one per row of ``states``.

    Row b is a state on n qubits; the set bits of ``masks[b]`` (qubit j at
    bit n - j, as in ``enumerate_protocol``) are the kept qubits, and at
    least one must be set.  The fidelity of the kept qubits' reduced state
    with |GHZ_k> = (|0...0> + |1...1>)/sqrt(2) is a sum over the basis states
    of the traced qubits.  Amplitude bit i of the 2^n-vector is the same
    qubit as mask bit i, so the traced configurations are the indices i with
    i & K == 0 for K = masks[b], and

        F = sum_{i & K == 0} |psi[i] + psi[i | K]|^2 / 2,

    the kept qubits all 0 at i and all 1 at i | K.  All rows take the same
    elementwise operations and one row-wise sum.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2:
        raise ValueError(f"expected a (branches, 2^n) array of states, got shape {states.shape}")
    n = _qubits(states.shape[1:], 1, MAX_STATE_QUBITS, "dense state vectors")
    masks = np.asarray(masks, dtype=np.int64).reshape(-1, 1)
    if len(masks) != len(states) or np.any((masks < 1) | (masks >= 2**n)):
        raise ValueError(f"need one mask per state, each in [1, 2^{n})")
    index = np.arange(2**n)
    pair = states + np.take_along_axis(states, index | masks, axis=1)
    weight = np.where(index & masks, 0.0, pair.real**2 + pair.imag**2)
    return weight.sum(axis=1) / 2.0


def enumerate_loss(params: CatParams, lam: float) -> float:
    """Expected relative off-diagonal magnitude under random qubit loss.

    lam in [0, 1] is the per-qubit loss probability.  Sums over all 2^N
    loss subsets with weight lam^(N-k) (1-lam)^k, where k qubits survive;
    each term is the trace norm of the off-diagonal block traced over the
    lost qubits, relative to the trace norm of the untraced block on the
    same k surviving qubits.
    """
    lam = _check_lam(lam)
    n = params.N
    _check_qubits(n, MAX_ENUM_QUBITS, "exhaustive enumerations")
    ratios = _loss_ratio_sums(params)
    return sum(lam ** (n - k) * (1.0 - lam) ** k * r for k, r in enumerate(ratios))


@functools.lru_cache(maxsize=1)
def _loss_ratio_sums(params: CatParams) -> tuple[float, ...]:
    """Summed trace-norm ratios of the C(N, k) loss subsets that keep k qubits, k = 0..N.

    They do not depend on lambda, so one (N, eps) is traced once for every
    loss rate; the cache keeps the last point, which a lambda-innermost loop
    reuses.  Each k takes one stacked SVD of its traced blocks, and their sum
    is normalized by the trace norm of the untraced k-qubit block.
    """
    n = params.N
    phi1, phi2 = branch_vectors(params)
    dyad = np.outer(phi1, phi2.conj())
    # the block is exactly real for real branch vectors, so its traces are
    # taken, and their SVD is done, in real arithmetic
    tensor = _real_if_exact(kron_power(dyad, n)).reshape((2,) * (2 * n))
    sums = []
    for k in range(n + 1):
        kept_sets = list(combinations(range(n), k))
        stack = np.empty((len(kept_sets), 2**k, 2**k), dtype=tensor.dtype)
        for i, kept in enumerate(kept_sets):
            stack[i] = _trace_out(tensor, kept).reshape(2**k, 2**k)
        numer = float(np.linalg.svd(stack, compute_uv=False).sum())
        # the k = N stack is the untraced block alone, so its sum is its own norm
        sums.append(numer / (numer if k == n else dense_trace_norm(kron_power(dyad, k))))
    return tuple(sums)
