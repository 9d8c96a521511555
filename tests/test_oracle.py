import math

import numpy as np
import pytest

from catsize.channels import CHANNEL_KINDS, DEPHASING, ChannelSpec
from catsize.core import CatParams, normalization_constant
from catsize.distillation import outcome_distribution
from catsize.loss import LossModel, cat_loss_suppression
from catsize import oracle
from catsize.oracle import (
    apply_one_qubit,
    apply_product_channel,
    biorthonormal_filter,
    build_cat_state,
    build_ghz_state,
    dense_trace_norm,
    enumerate_loss,
    enumerate_protocol,
    ghz_fidelity,
    kron_all,
    kron_power,
    partial_trace_operator,
    partial_trace_state,
    partial_trace_to_first,
)

HALF_PI = math.pi / 2


def test_build_cat_state_small_cases():
    np.testing.assert_allclose(
        build_cat_state(CatParams(1, HALF_PI)),
        np.array([1, 1]) / math.sqrt(2),
        atol=1e-15,
    )
    ghz3 = np.zeros(8)
    ghz3[0] = ghz3[7] = 1 / math.sqrt(2)
    np.testing.assert_allclose(build_cat_state(CatParams(3, HALF_PI)), ghz3, atol=1e-15)
    # product state at eps = 0
    np.testing.assert_allclose(
        build_cat_state(CatParams(3, 0.0)), np.eye(8)[0], atol=1e-15
    )


def test_raw_cat_norm_validates_normalization_constant():
    # independent tensor construction: || phi1^(x)3 + phi2^(x)3 ||^2 = K = 2.25
    p = CatParams(3, math.pi / 3)
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([p.c_eps, p.s_eps], dtype=complex)
    raw = kron_power(phi1.reshape(2, 1), 3).ravel() + kron_power(
        phi2.reshape(2, 1), 3
    ).ravel()
    assert float(np.vdot(raw, raw).real) == pytest.approx(2.25, abs=1e-14)
    assert normalization_constant(p) == pytest.approx(2.25, abs=1e-14)


def test_build_cat_state_is_normalized():
    for n, eps in [(2, 0.1), (7, 0.9), (10, HALF_PI)]:
        vec = build_cat_state(CatParams(n, eps))
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_build_ghz_state():
    np.testing.assert_allclose(
        build_ghz_state(1), np.array([1, 1]) / math.sqrt(2), atol=1e-15
    )
    bell = build_ghz_state(2)
    rho1 = partial_trace_to_first(bell)
    np.testing.assert_allclose(rho1, np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(
        build_ghz_state(3), build_cat_state(CatParams(3, HALF_PI)), atol=1e-15
    )


def test_size_caps_are_hard_errors():
    with pytest.raises(ValueError):
        build_cat_state(CatParams(15, 0.3))
    with pytest.raises(ValueError):
        build_ghz_state(15)
    with pytest.raises(ValueError):
        dense_trace_norm(np.eye(2**11))
    with pytest.raises(ValueError):
        enumerate_protocol(CatParams(9, 0.3))
    with pytest.raises(ValueError):
        enumerate_loss(CatParams(9, 0.3), LossModel(0.1))


def test_apply_product_channel_identity_at_zero_time():
    rng = np.random.default_rng(2)
    op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for kind in CHANNEL_KINDS:
        out = apply_product_channel(op, ChannelSpec(kind, 0.0))
        assert np.max(np.abs(out - op)) < 1e-12


def _kron_factor_product_channel(op, ch):
    # reference: conjugate by the full 2^n x 2^n factor I (x) K (x) I per qubit
    n = op.shape[0].bit_length() - 1
    for q in range(n):
        acc = np.zeros_like(op)
        for k in ch.kraus_operators():
            kf = np.kron(np.kron(np.eye(2**q), k), np.eye(2 ** (n - q - 1)))
            acc += kf @ op @ kf.conj().T
        op = acc
    return op


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_apply_product_channel_matches_kron_factor_reference(n, kind):
    rng = np.random.default_rng(100 + n)
    dim = 2**n
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ch = ChannelSpec(kind, 0.37)
    diff = np.max(np.abs(apply_product_channel(op, ch) - _kron_factor_product_channel(op, ch)))
    assert diff <= 1e-14 * np.max(np.abs(op))


def test_state_length_must_be_power_of_two():
    m = np.eye(2)
    for call in (
        lambda s: apply_one_qubit(s, m, 0),
        lambda s: partial_trace_state(s, [0]),
        lambda s: partial_trace_to_first(s),
    ):
        with pytest.raises(ValueError, match="power of two"):
            call(np.ones(6))


def test_apply_product_channel_ghz_block():
    # dephasing scales (|0><1|)^(x)n by exp(-n gamma t) entrywise
    n, gt = 4, 0.7
    dyad = np.array([[0, 1], [0, 0]], dtype=complex)
    block = kron_power(dyad, n)
    out = apply_product_channel(block, ChannelSpec(DEPHASING, gt))
    np.testing.assert_allclose(out, math.exp(-n * gt) * block, atol=1e-12)


def test_apply_product_channel_preserves_trace():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = z @ z.conj().T
    rho /= np.trace(rho)
    for kind in CHANNEL_KINDS:
        out = apply_product_channel(rho, ChannelSpec(kind, 0.6))
        assert abs(np.trace(out) - 1.0) < 1e-10


def test_dense_trace_norm_values():
    assert dense_trace_norm(np.eye(2**5)) == pytest.approx(2.0**5, rel=1e-12)
    dyad = np.array([[0, 1], [0, 0]], dtype=complex)
    assert dense_trace_norm(kron_power(dyad, 6)) == pytest.approx(1.0, abs=1e-12)
    # branch dyad is rank one with unit norm, so any tensor power has norm 1
    p = CatParams(4, 0.5)
    b0 = np.outer([1, 0], [p.c_eps, p.s_eps])
    assert dense_trace_norm(kron_power(b0, 4)) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_to_first_cases():
    np.testing.assert_allclose(
        partial_trace_to_first(build_ghz_state(5)), np.eye(2) / 2, atol=1e-15
    )
    prod = np.zeros(2**4)
    prod[0] = 1.0
    np.testing.assert_allclose(
        partial_trace_to_first(prod), np.diag([1.0, 0.0]), atol=1e-15
    )
    with pytest.raises(ValueError):
        partial_trace_to_first(np.array([1.0, 0.0]))


def test_partial_trace_operator_factorizes():
    # tracing qubits of a product operator multiplies in their traces
    rng = np.random.default_rng(8)
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    full = np.kron(np.kron(ops[0], ops[1]), ops[2])
    traced = partial_trace_operator(full, keep=[1])
    expected = np.trace(ops[0]) * np.trace(ops[2]) * ops[1]
    np.testing.assert_allclose(traced, expected, atol=1e-12)
    scalar = partial_trace_operator(full, keep=[])
    assert scalar.shape == (1, 1)
    assert scalar[0, 0] == pytest.approx(
        np.trace(ops[0]) * np.trace(ops[1]) * np.trace(ops[2])
    )


def test_apply_one_qubit_matches_kron():
    rng = np.random.default_rng(12)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for q, full in [
        (0, np.kron(np.kron(m, np.eye(2)), np.eye(2))),
        (1, np.kron(np.kron(np.eye(2), m), np.eye(2))),
        (2, np.kron(np.kron(np.eye(2), np.eye(2)), m)),
    ]:
        np.testing.assert_allclose(apply_one_qubit(state, m, q), full @ state, atol=1e-12)


def _chained_kron(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


_RNG = np.random.default_rng(31)
_COLUMN = _RNG.normal(size=(2, 1)) + 1j * _RNG.normal(size=(2, 1))
_ROW = _RNG.normal(size=(1, 2)) + 1j * _RNG.normal(size=(1, 2))
_SQUARE = _RNG.normal(size=(2, 2)) + 1j * _RNG.normal(size=(2, 2))
_FLAT = _RNG.normal(size=3) + 1j * _RNG.normal(size=3)


@pytest.mark.parametrize(
    "mats",
    [
        [],
        [_COLUMN] * 4,
        [_ROW] * 4,
        [_SQUARE, -_SQUARE.T, _SQUARE.conj()],
        [_COLUMN, _SQUARE, _ROW, np.arange(6.0).reshape(3, 2), [[1, -2]], np.eye(2)],
        [np.array([[0.0, -0.0], [-1.0, 2.0]])] * 3,
        # 1-D factors count as rows, as in np.kron
        [_FLAT],
        [_FLAT, _FLAT[:2]],
        [_SQUARE, _FLAT, _COLUMN, [1.0, -1.0]],
    ],
)
def test_kron_all_equals_chained_np_kron(mats):
    got, want = kron_all(mats), _chained_kron(mats)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included


def test_kron_all_refuses_factors_of_other_ranks():
    with pytest.raises(ValueError, match="1-D or 2-D"):
        kron_all([_SQUARE, np.complex128(2.0)])
    with pytest.raises(ValueError, match="1-D or 2-D"):
        kron_all([np.ones((2, 2, 2))])


def _per_mask_protocol(params):
    # reference: every mask applies its N operators to the cat state from
    # scratch, N 2^N one-qubit applications
    n = params.N
    a, a_bar = biorthonormal_filter(params)
    psi = build_cat_state(params)
    q = np.zeros(n + 1)
    branches = []
    for mask in range(2**n):
        vec = psi
        for j in range(n):
            op = a if (mask >> (n - 1 - j)) & 1 else a_bar
            vec = apply_one_qubit(vec, op, j)
        prob = float(np.vdot(vec, vec).real)
        successes = bin(mask).count("1")
        q[successes] += prob
        state = vec / math.sqrt(prob) if prob > 1e-300 else None
        branches.append((mask, successes, prob, state))
    return q, branches


@pytest.mark.parametrize("eps", [0.1, math.pi / 4, HALF_PI - 0.1])
@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_protocol_equals_the_per_mask_loop(n, eps, monkeypatch):
    params = CatParams(n, eps)
    q_ref, ref = _per_mask_protocol(params)
    calls = []

    def counted(*args):
        calls.append(1)
        return apply_one_qubit(*args)

    monkeypatch.setattr(oracle, "apply_one_qubit", counted)
    q, branches = enumerate_protocol(params)
    assert len(calls) == 2 ** (n + 1) - 2
    assert q.tobytes() == q_ref.tobytes()
    assert len(branches) == len(ref) == 2**n
    for branch, (mask, successes, prob, state) in zip(branches, ref):
        assert (branch.mask, branch.n_success, branch.probability) == (mask, successes, prob)
        if state is None:
            assert branch.state is None
        else:
            assert np.array_equal(branch.state, state)
            assert branch.state.tobytes() == state.tobytes()


def test_enumerate_protocol_hand_case():
    q, branches = enumerate_protocol(CatParams(2, math.pi / 3))
    np.testing.assert_allclose(q, [0.4, 0.4, 0.2], atol=1e-12)
    assert abs(sum(b.probability for b in branches) - 1.0) < 1e-12


def test_enumerate_protocol_half_pi_single_branch():
    n = 4
    q, branches = enumerate_protocol(CatParams(n, HALF_PI))
    assert q[n] == pytest.approx(1.0, abs=1e-12)
    full_success = [b for b in branches if b.n_success == n][0]
    assert ghz_fidelity(full_success, n) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,eps", [(4, 0.8), (5, 0.3), (6, 1.2)])
def test_enumerate_protocol_ghz_fidelities(n, eps):
    q, branches = enumerate_protocol(CatParams(n, eps))
    closed = outcome_distribution(CatParams(n, eps)).q
    np.testing.assert_allclose(q, closed, atol=1e-10)
    for b in branches:
        if b.n_success >= 1 and b.state is not None:
            assert abs(ghz_fidelity(b, n) - 1.0) < 1e-10


@pytest.mark.parametrize("eps", [0.3, 0.8, HALF_PI - 0.1])
def test_residual_factorization_after_failure(eps):
    # an Abar outcome factors the measured qubit out and leaves the smaller cat
    n = 5
    p = CatParams(n, eps)
    _, a_bar = biorthonormal_filter(p)
    for qubit in [0, 2, n - 1]:
        vec = apply_one_qubit(build_cat_state(p), a_bar, qubit)
        vec /= np.linalg.norm(vec)
        rest = partial_trace_state(vec, [j for j in range(n) if j != qubit])
        residual = build_cat_state(CatParams(n - 1, eps))
        fid = float((residual.conj() @ rest @ residual).real)
        assert abs(fid - 1.0) < 1e-10


def test_enumerate_loss_cases():
    p = CatParams(5, 0.7)
    assert enumerate_loss(p, LossModel(0.0)) == pytest.approx(1.0, abs=1e-12)
    hp = CatParams(5, HALF_PI)
    assert enumerate_loss(hp, LossModel(0.4)) == pytest.approx(0.6**5, rel=1e-9)
    model = LossModel(0.3)
    p6 = CatParams(6, 0.7)
    assert enumerate_loss(p6, model) == pytest.approx(
        cat_loss_suppression(p6, model), abs=1e-9
    )
    assert enumerate_loss(p6, model) == pytest.approx(
        (1 - 0.3 * (1 - math.cos(0.7))) ** 6, rel=1e-12
    )


def _per_subset_loss_reference(params, loss):
    # reference: one partial trace and one SVD per loss subset, for each lambda
    n = params.N
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([params.c_eps, params.s_eps], dtype=complex)
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


@pytest.mark.parametrize("eps", [1e-3, 0.3, math.pi / 4, HALF_PI])
@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_loss_matches_per_subset_reference(n, eps):
    params = CatParams(n, eps)
    for lam in (0.0, 0.1, 0.5, 1.0):
        model = LossModel(lam)
        assert abs(enumerate_loss(params, model) - _per_subset_loss_reference(params, model)) <= 1e-13
