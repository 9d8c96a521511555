"""Brute-force ground truth on dense state vectors and operators.

Everything here is deliberately naive: states are full 2^N amplitude
vectors, operators full 2^N x 2^N matrices, channels act on the full dense
operator through the superoperator built from their Kraus set, trace norms
come from a dense SVD, and the measurement protocol (all 2^N outcome
strings) and qubit loss (all 2^N lost subsets) are enumerated exhaustively.
The closed forms in the analysis modules are validated against these
routines; the oracle never calls them (shared code is limited to the
parameter types).

Convention, fixed package-wide: qubit 1 is the MOST significant bit of the
amplitude index, so |b1 b2 ... bN> sits at index b1*2^(N-1) + ... + bN.

Size caps are hard errors: 14 qubits for state vectors, 10 for dense
operators, 8 for exhaustive enumerations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import ChannelSpec
from .core import CatParams
from .loss import LossModel

__all__ = [
    "MAX_STATE_QUBITS",
    "MAX_OPERATOR_QUBITS",
    "MAX_ENUM_QUBITS",
    "ProtocolBranch",
    "kron_all",
    "kron_power",
    "branch_vectors",
    "cat_amplitudes",
    "build_cat_state",
    "build_ghz_state",
    "apply_product_channel",
    "dense_trace_norm",
    "partial_trace_to_first",
    "partial_trace_state",
    "partial_trace_operator",
    "apply_one_qubit",
    "biorthonormal_filter",
    "enumerate_protocol",
    "enumerate_loss",
    "ghz_fidelity",
]

MAX_STATE_QUBITS = 14
MAX_OPERATOR_QUBITS = 10
MAX_ENUM_QUBITS = 8

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _check_qubits(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ValueError(f"{what} capped at {cap} qubits, got {n}")


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices (identity for empty input).

    Each step multiplies the running (r, c) product and the next (rm, cm)
    factor broadcast to (r, rm, c, cm) and reshapes to (r rm, c cm): the
    products ``np.kron`` forms, bit for bit, without its per-call shape
    handling.  A 1-D factor counts as one row, as in ``np.kron``; any other
    non-2-D factor is refused.
    """
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        m = np.asarray(m, dtype=complex)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        elif m.ndim != 2:
            raise ValueError(f"kron_all takes 1-D or 2-D factors, got shape {m.shape}")
        (r, c), (rm, cm) = out.shape, m.shape
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(r * rm, c * cm)
    return out


def kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a matrix."""
    return kron_all([mat] * n)


def branch_vectors(params: CatParams) -> tuple[np.ndarray, np.ndarray]:
    """(|phi1>, |phi2>) built from the raw parameters.

    Deliberately separate from ``core.phi_vectors``, which it checks.
    """
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_qubits(n, MAX_STATE_QUBITS, "dense state vectors")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return vec


def _qubit_count(size: int, what: str) -> int:
    n = size.bit_length() - 1
    if 2**n != size:
        raise ValueError(f"{what} {size} is not a power of two")
    return n


def _as_state(state) -> tuple[np.ndarray, int]:
    # flat complex amplitudes and their qubit count
    state = np.asarray(state, dtype=complex).ravel()
    return state, _qubit_count(state.size, "state length")


def _n_qubits_of_operator(op: np.ndarray) -> int:
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    return _qubit_count(op.shape[0], "matrix dimension")


def apply_product_channel(op: np.ndarray, ch: ChannelSpec) -> np.ndarray:
    """Apply the single-qubit Kraus set to every qubit slot of a dense operator.

    The 2^n x 2^n operator is read as a 2n-qubit tensor (row index first):
    K op K^dag applies K to row slot q and conj(K) to column slot n + q, so
    the channel on qubit q is the 4x4 superoperator S = sum_K K (x) conj(K)
    contracted with that (row, column) slot pair, one contraction per qubit.
    The contraction is a plain einsum, not a BLAS matmul: threaded BLAS (a
    library caller's default; the CLI entry asks for one thread) is slow and
    erratic on products this thin.
    """
    op = np.asarray(op, dtype=complex)
    n = _n_qubits_of_operator(op)
    _check_qubits(n, MAX_OPERATOR_QUBITS, "dense operators")
    kraus = ch.kraus_operators()
    completeness = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(completeness - np.eye(2))) > 1e-12:
        raise ValueError("Kraus set fails completeness: sum K^dag K != I")
    # S[(i k), (j l)] = sum_K K[i, j] conj(K[k, l])
    sup = sum(np.einsum("ij,kl->ikjl", k, k.conj()) for k in kraus).reshape(4, 4)
    out = op
    for q in range(n):
        # axes (row bits above q, row bit q, rest, column bit q, column bits below q)
        shape = (2**q, 2, 2 ** (n - 1), 2, 2 ** (n - q - 1))
        pairs = out.reshape(shape).transpose(1, 3, 0, 2, 4).reshape(4, -1)
        mixed = np.einsum("xy,ym->xm", sup, pairs).reshape(2, 2, *shape[::2])
        out = mixed.transpose(2, 0, 3, 1, 4)
    return out.reshape(op.shape)


def dense_trace_norm(op: np.ndarray) -> float:
    """Sum of singular values, from a full dense SVD."""
    op = np.asarray(op, dtype=complex)
    n = _n_qubits_of_operator(op)
    _check_qubits(n, MAX_OPERATOR_QUBITS, "dense operators")
    return float(np.linalg.svd(op, compute_uv=False).sum())


def partial_trace_state(state: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the kept qubits (0-based)."""
    state, n = _as_state(state)
    _check_qubits(n, MAX_STATE_QUBITS, "dense state vectors")
    keep = list(keep)
    if any(q < 0 or q >= n for q in keep):
        raise ValueError("kept qubit index out of range")
    rest = [q for q in range(n) if q not in keep]
    tensor = state.reshape((2,) * n)
    mat = np.transpose(tensor, keep + rest).reshape(2 ** len(keep), 2 ** len(rest))
    return mat @ mat.conj().T


def partial_trace_to_first(state: np.ndarray) -> np.ndarray:
    """2x2 reduced state of qubit 1 (the most significant bit); needs N >= 2."""
    state, n = _as_state(state)
    if n < 2:
        raise ValueError("partial_trace_to_first requires N >= 2")
    return partial_trace_state(state, [0])


def partial_trace_operator(op: np.ndarray, keep) -> np.ndarray:
    """Partial trace of a dense operator onto the kept qubits (0-based).

    The operator need not be Hermitian; tracing an off-diagonal block is
    the use case in the loss analysis.
    """
    op = np.asarray(op, dtype=complex)
    n = _n_qubits_of_operator(op)
    _check_qubits(n, MAX_OPERATOR_QUBITS, "dense operators")
    keep = tuple(sorted(keep))
    if any(q < 0 or q >= n for q in keep):
        raise ValueError("kept qubit index out of range")
    traced = np.einsum(_trace_subscripts(n, keep), op.reshape((2,) * (2 * n)))
    dim = 2 ** len(keep)
    return traced.reshape(dim, dim)


@functools.lru_cache(maxsize=2**(MAX_OPERATOR_QUBITS + 1))
def _trace_subscripts(n: int, keep: tuple[int, ...]) -> str:
    # einsum subscripts of partial_trace_operator (the cache holds every kept
    # set of every operator size): row slot q is letter q, column slot q is
    # letter n + q if q is kept and letter q (traced) if not
    row = [_LETTERS[q] for q in range(n)]
    col = [_LETTERS[n + q] if q in keep else _LETTERS[q] for q in range(n)]
    out = "".join(_LETTERS[q] for q in keep) + "".join(_LETTERS[n + q] for q in keep)
    return "".join(row) + "".join(col) + "->" + out


def apply_one_qubit(state: np.ndarray, m: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 operator to one qubit slot of a state vector (0-based)."""
    state, n = _as_state(state)
    if not (0 <= qubit < n):
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    cube = state.reshape(2**qubit, 2, 2 ** (n - qubit - 1))
    return np.einsum("ij,ajb->aib", np.asarray(m, dtype=complex), cube).ravel()


def biorthonormal_filter(params: CatParams) -> tuple[np.ndarray, np.ndarray]:
    """Numerically constructed filter {A, Abar}, independent of the closed form.

    A = k * Phi^(-1) where Phi has columns |phi1>, |phi2> (that is exactly
    k (|0><phi1~| + |1><phi2~|) in the biorthonormal basis), with k^2 the
    smallest eigenvalue of Phi Phi^dag so that I - A^dag A is rank one.
    Abar is the PSD square root from an eigendecomposition.
    """
    if params.epsilon <= 0.0:
        raise ValueError("biorthonormal basis requires eps > 0")
    phi1, phi2 = branch_vectors(params)
    basis = np.column_stack([phi1, phi2])
    k_sq = float(np.linalg.eigvalsh(basis @ basis.conj().T)[0])
    a = math.sqrt(k_sq) * np.linalg.inv(basis)
    complement = np.eye(2, dtype=complex) - a.conj().T @ a
    w, v = np.linalg.eigh(complement)
    w = np.clip(w, 0.0, None)
    a_bar = (v * np.sqrt(w)) @ v.conj().T
    return a, a_bar


@dataclass(frozen=True)
class ProtocolBranch:
    """One outcome string of the exhaustive protocol tree.

    mask bit for qubit j (1-based) is (mask >> (N - j)) & 1; set bits are
    successful (A) outcomes.  state is the normalized post-measurement
    vector, or None for branches of probability below 1e-300.
    """

    mask: int
    n_success: int
    probability: float
    state: np.ndarray | None


def enumerate_protocol(params: CatParams) -> tuple[np.ndarray, list[ProtocolBranch]]:
    """Exhaustive Born-rule branching of the filtering protocol.

    Returns the exact outcome distribution aggregated over success counts
    together with every branch (in mask order), for fidelity checks
    downstream.  The tree is walked level by level: qubit j's Abar and A
    act once on each unnormalized vector of the 2^j outcome prefixes, so
    the walk takes 2^(N+1) - 2 one-qubit applications, not N 2^N, and each
    leaf is the same chain of operations as applying the mask's operators
    qubit by qubit.
    """
    n = params.N
    _check_qubits(n, MAX_ENUM_QUBITS, "exhaustive enumerations")
    a, a_bar = biorthonormal_filter(params)
    # prefix p of qubits 1..j sits at index p, so appending the outcome of
    # qubit j + 1 as the low bit keeps the list in mask order
    level = [build_cat_state(params)]
    for j in range(n):
        level = [apply_one_qubit(vec, op, j) for vec in level for op in (a_bar, a)]
    q = np.zeros(n + 1)
    branches: list[ProtocolBranch] = []
    for mask, vec in enumerate(level):
        prob = float(np.vdot(vec, vec).real)
        successes = bin(mask).count("1")
        q[successes] += prob
        state = vec / math.sqrt(prob) if prob > 1e-300 else None
        branches.append(ProtocolBranch(mask, successes, prob, state))
    return q, branches


def ghz_fidelity(branch: ProtocolBranch, n_qubits: int) -> float:
    """Fidelity of a success branch's reduced state with the ideal GHZ state.

    The reduced density matrix on the successful qubits is compared with
    |GHZ_n><GHZ_n|; requires n_success >= 1 and a surviving state.
    """
    if branch.n_success < 1 or branch.state is None:
        raise ValueError("GHZ fidelity needs a success branch with a state")
    keep = [
        j for j in range(n_qubits) if (branch.mask >> (n_qubits - 1 - j)) & 1
    ]
    rho = partial_trace_state(branch.state, keep)
    ghz = build_ghz_state(len(keep))
    return float((ghz.conj() @ rho @ ghz).real)


def enumerate_loss(params: CatParams, loss: LossModel) -> float:
    """Expected relative off-diagonal magnitude under random qubit loss.

    Sums over all 2^N loss subsets with weight lam^(N-k) (1-lam)^k, where k
    qubits survive; each term is the trace norm of the off-diagonal block
    traced over the lost qubits, relative to the trace norm of the untraced
    block on the same k surviving qubits.
    """
    n = params.N
    _check_qubits(n, MAX_ENUM_QUBITS, "exhaustive enumerations")
    ratios = _loss_ratio_sums(params)
    return sum(loss.lam ** (n - k) * (1.0 - loss.lam) ** k * r for k, r in enumerate(ratios))


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
    full_block = kron_power(dyad, n)
    sums = []
    for k in range(n + 1):
        kept_sets = list(combinations(range(n), k))
        stack = np.empty((len(kept_sets), 2**k, 2**k), dtype=complex)
        for i, kept in enumerate(kept_sets):
            stack[i] = partial_trace_operator(full_block, kept)
        numer = np.linalg.svd(stack, compute_uv=False).sum()
        sums.append(float(numer) / dense_trace_norm(kron_power(dyad, k)))
    return tuple(sums)
