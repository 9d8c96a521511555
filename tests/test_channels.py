"""The two single-qubit channels, checked on the oracle's Kraus path.

A 2x2 operator is the N = 1 block of ``apply_product_channel``, so each
entry rule below is the dense superoperator action on one qubit.
"""

import math
import re

import numpy as np
import pytest

from catsize.core import CatParams
from catsize.oracle import (
    CHANNEL_KINDS,
    DEPHASING,
    DEPOLARIZING,
    PAULI_Z,
    ChannelSpec,
    apply_product_channel,
    branch_vectors,
    dense_trace_norm,
    kron_power,
)

GAMMA_TS = [0.0, 0.05, 0.5, 2.0, 10.0]
EPSILONS = [0.0, 0.1, 0.3, math.pi / 4, math.pi / 2 - 0.1, math.pi / 2]


def random_operators(count, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))


def test_channel_spec_validation():
    refusal = "kind must be one of ('dephasing', 'depolarizing'), got 'amplitude-damping'"
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        ChannelSpec("amplitude-damping", 0.1)
    with pytest.raises(ValueError, match="gamma_t must lie"):
        ChannelSpec(DEPHASING, 0.1)._replace(gamma_t=math.nan)
    spec = ChannelSpec(kind=DEPOLARIZING, gamma_t=5)
    assert spec == ChannelSpec(DEPOLARIZING, 5.0) and type(spec.gamma_t) is float
    assert repr(spec) == "ChannelSpec(kind='depolarizing', gamma_t=5.0)"
    with pytest.raises(AttributeError):
        spec.gamma_t = 1.0
    assert 0.0 < spec.mu <= 1.0


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("gamma_t", GAMMA_TS)
def test_kraus_completeness(kind, gamma_t):
    ch = ChannelSpec(kind, gamma_t)
    acc = sum(k.conj().T @ k for k in ch.kraus_operators())
    assert np.max(np.abs(acc - np.eye(2))) < 1e-12


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("gamma_t", GAMMA_TS)
def test_closed_form_matches_kraus(kind, gamma_t):
    # the superoperator action equals the Kraus sum and the entry rule:
    # dephasing scales the off-diagonal entries by mu, depolarizing is
    # X -> mu X + (1 - mu) tr(X) I/2, on every operator, Hermitian or not
    ch = ChannelSpec(kind, gamma_t)
    kraus = ch.kraus_operators()
    mu = ch.mu
    for x in random_operators(6):
        dense = apply_product_channel(x, ch)
        generic = sum(k @ x @ k.conj().T for k in kraus)
        if kind == DEPHASING:
            rule = x * np.array([[1.0, mu], [mu, 1.0]])
        else:
            rule = mu * x + (1.0 - mu) * np.trace(x) * np.eye(2) / 2.0
        assert np.max(np.abs(dense - generic)) < 1e-14
        assert np.max(np.abs(dense - rule)) < 1e-14


def test_dephasing_halves_offdiag_at_ln2():
    ch = ChannelSpec(DEPHASING, math.log(2.0))
    dyad = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.max(np.abs(apply_product_channel(dyad, ch) - 0.5 * dyad)) < 1e-15


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_zero_time_is_identity(kind):
    ch = ChannelSpec(kind, 0.0)
    for x in random_operators(4):
        assert np.max(np.abs(apply_product_channel(x, ch) - x)) < 1e-15


def test_depolarizing_branch_dyad_entries():
    # E(b0) = c (1+mu)/2 |0><0| + c (1-mu)/2 |1><1| + s mu |0><1|; the
    # |1><1| weight carries tr(b0) = c through the (1-mu)/2 mixing term
    p = CatParams(5, 0.6)
    c, s = p.c_eps, p.s_eps
    phi1, phi2 = branch_vectors(p)
    b0 = np.outer(phi1, phi2.conj())
    for gamma_t in [0.05, 0.5, 2.0]:
        ch = ChannelSpec(DEPOLARIZING, gamma_t)
        mu = ch.mu
        expected = np.array(
            [[c * (1 + mu) / 2, s * mu], [0.0, c * (1 - mu) / 2]], dtype=complex
        )
        assert np.max(np.abs(apply_product_channel(b0, ch) - expected)) < 1e-14


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("gamma_t", GAMMA_TS)
def test_trace_preservation(kind, gamma_t):
    ch = ChannelSpec(kind, gamma_t)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = z @ z.conj().T
        rho /= np.trace(rho)
        out = apply_product_channel(rho, ch)
        assert abs(np.trace(out) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("gamma_t", GAMMA_TS)
def test_choi_matrix_is_psd(kind, gamma_t):
    # complete positivity of the dense action: its Choi matrix
    # sum_ij E(|i><j|) (x) |i><j| has no negative eigenvalue
    ch = ChannelSpec(kind, gamma_t)
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            dyad = np.zeros((2, 2), dtype=complex)
            dyad[i, j] = 1.0
            choi += np.kron(apply_product_channel(dyad, ch), dyad)
    assert np.min(np.linalg.eigvalsh(choi)) > -1e-12


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("gamma_t", GAMMA_TS)
def test_channel_norm_equality(eps, gamma_t):
    # both channels shrink the branch dyad's trace norm to sqrt(d)
    p = CatParams(3, eps)
    phi1, phi2 = branch_vectors(p)
    b0 = np.outer(phi1, phi2.conj())
    mu = math.exp(-gamma_t)
    sqrt_d = math.sqrt(p.c_eps**2 + p.s_eps**2 * mu * mu)
    n_deph = dense_trace_norm(apply_product_channel(b0, ChannelSpec(DEPHASING, gamma_t)))
    n_depol = dense_trace_norm(apply_product_channel(b0, ChannelSpec(DEPOLARIZING, gamma_t)))
    assert abs(n_deph - n_depol) < 1e-12
    assert abs(n_deph - sqrt_d) < 1e-12


def test_dephasing_semigroup():
    for t1, t2 in [(0.1, 0.2), (0.7, 1.3), (0.0, 2.0)]:
        once = ChannelSpec(DEPHASING, t1 + t2)
        for x in random_operators(4, seed=5):
            composed = apply_product_channel(
                apply_product_channel(x, ChannelSpec(DEPHASING, t2)), ChannelSpec(DEPHASING, t1)
            )
            assert np.max(np.abs(composed - apply_product_channel(x, once))) < 1e-12


def test_trace_norm_fixed_points():
    assert dense_trace_norm(np.array([[0, 1], [0, 0]])) == pytest.approx(1.0, abs=1e-15)
    assert dense_trace_norm(PAULI_Z) == pytest.approx(2.0, abs=1e-15)


def test_trace_norm_matches_svd():
    # ||X||_1 = tr sqrt(X^dag X), from the eigenvalues of X^dag X
    rng = np.random.default_rng(9)
    for dim, count in ((2, 20), (4, 10)):
        for _ in range(count):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            gram = np.linalg.eigvalsh(x.conj().T @ x)
            reference = float(np.sqrt(np.clip(gram, 0.0, None)).sum())
            assert dense_trace_norm(x) == pytest.approx(reference, rel=1e-12)


def test_trace_norm_multiplicative_under_tensor_square():
    for x in random_operators(10, seed=13):
        square = dense_trace_norm(kron_power(x, 2))
        assert square == pytest.approx(dense_trace_norm(x) ** 2, rel=1e-10)


def test_adjoint_involution():
    for x in random_operators(5, seed=17):
        assert np.array_equal(x.conj().T.conj().T, x)


def test_shape_guards():
    with pytest.raises(ValueError):
        dense_trace_norm(np.eye(3))
    with pytest.raises(ValueError):
        apply_product_channel(np.eye(3), ChannelSpec(DEPHASING, 0.1))
    with pytest.raises(ValueError):
        apply_product_channel(np.ones((2, 4)), ChannelSpec(DEPHASING, 0.1))
