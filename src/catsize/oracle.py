"""Brute-force ground truth on dense state vectors and operators.

Everything here is deliberately naive: states are full 2^N amplitude
vectors, operators full 2^N x 2^N matrices, channels act through generic
Kraus conjugation, trace norms come from a dense SVD, and the measurement
protocol is enumerated over all 2^N outcome strings.  The closed forms in
the analysis modules are validated against these routines; the oracle never
calls them (shared code is limited to the parameter types).

Convention, fixed package-wide: qubit 1 is the MOST significant bit of the
amplitude index, so |b1 b2 ... bN> sits at index b1*2^(N-1) + ... + bN.

Size caps are hard errors: 14 qubits for state vectors, 10 for dense
operators, 8 for exhaustive enumerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Kronecker product of a sequence of arrays (identity for empty input)."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
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

    The 2^n x 2^n operator is read as a 2n-qubit vector (row index first):
    K op K^dag applies K to row slot q and conj(K) to column slot n + q.
    """
    op = np.asarray(op, dtype=complex)
    n = _n_qubits_of_operator(op)
    _check_qubits(n, MAX_OPERATOR_QUBITS, "dense operators")
    kraus = ch.kraus_operators()
    completeness = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(completeness - np.eye(2))) > 1e-12:
        raise ValueError("Kraus set fails completeness: sum K^dag K != I")
    vec = op.ravel()
    for q in range(n):
        vec = sum(apply_one_qubit(apply_one_qubit(vec, k, q), k.conj(), n + q) for k in kraus)
    return vec.reshape(op.shape)


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
    keep = sorted(keep)
    if any(q < 0 or q >= n for q in keep):
        raise ValueError("kept qubit index out of range")
    tensor = op.reshape((2,) * (2 * n))
    row = [_LETTERS[q] for q in range(n)]
    col = [_LETTERS[n + q] if q in keep else _LETTERS[q] for q in range(n)]
    out = "".join(_LETTERS[q] for q in keep) + "".join(_LETTERS[n + q] for q in keep)
    traced = np.einsum("".join(row) + "".join(col) + "->" + out, tensor)
    dim = 2 ** len(keep)
    return traced.reshape(dim, dim)


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
    together with every branch, for fidelity checks downstream.
    """
    n = params.N
    _check_qubits(n, MAX_ENUM_QUBITS, "exhaustive enumerations")
    a, a_bar = biorthonormal_filter(params)
    psi = build_cat_state(params)
    q = np.zeros(n + 1)
    branches: list[ProtocolBranch] = []
    for mask in range(2**n):
        vec = psi
        for j in range(n):
            op = a if (mask >> (n - 1 - j)) & 1 else a_bar
            vec = apply_one_qubit(vec, op, j)
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

    Sums over all 2^N loss subsets with weight lam^k (1-lam)^(N-k); each
    term is the trace norm of the off-diagonal block traced over the lost
    qubits, relative to the trace norm of the untraced block on the same
    surviving qubits.
    """
    n = params.N
    _check_qubits(n, MAX_ENUM_QUBITS, "exhaustive enumerations")
    phi1, phi2 = branch_vectors(params)
    dyad = np.outer(phi1, phi2.conj())
    full_block = kron_power(dyad, n)
    # trace norm of the untraced block on k surviving qubits, k = 0..n
    reference = [
        float(np.linalg.svd(kron_power(dyad, k), compute_uv=False).sum()) for k in range(n + 1)
    ]
    total = 0.0
    for mask in range(2**n):
        lost = [j for j in range(n) if (mask >> (n - 1 - j)) & 1]
        kept = [j for j in range(n) if j not in lost]
        weight = loss.lam ** len(lost) * (1.0 - loss.lam) ** len(kept)
        if weight == 0.0:
            continue
        traced = partial_trace_operator(full_block, kept)
        numer = float(np.linalg.svd(traced, compute_uv=False).sum())
        total += weight * numer / reference[len(kept)]
    return total
