import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from catsize import oracle, validation
from catsize.core import CatParams, normalization_constant
from catsize.distillation import build_filter, outcome_distribution
from catsize.loss import cat_loss_suppression
from catsize.oracle import (
    CHANNEL_KINDS,
    DEPHASING,
    ChannelSpec,
    apply_one_qubit,
    apply_product_channel,
    biorthonormal_filter,
    branch_vectors,
    build_cat_state,
    build_ghz_state,
    dense_trace_norm,
    enumerate_loss,
    enumerate_protocol,
    ghz_fidelities,
    kron_all,
    kron_power,
    partial_trace_state,
)
from domain import EPS, HALF_PI, no_normal_k2


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
    rho1 = partial_trace_state(bell, [0])
    np.testing.assert_allclose(rho1, np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(
        build_ghz_state(3), build_cat_state(CatParams(3, HALF_PI)), atol=1e-15
    )
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match=r"^n must be an integer in \[1, "):
            build_ghz_state(bad)


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
        enumerate_loss(CatParams(9, 0.3), 0.1)
    cap = r"^qubit count of dense state vectors must be an integer in \[0, 14\], got 15$"
    with pytest.raises(ValueError, match=cap):
        apply_one_qubit(np.ones(2**15), np.eye(2), 0)
    # kron_all checks the product's shape before it multiplies: a vector
    # up to 14 qubits, any other product up to 10 on each side
    assert kron_all([np.ones((2, 1))] * 14).shape == (2**14, 1)
    assert kron_power(np.eye(2), 10).shape == (2**10, 2**10)
    for mats, cap in [
        ([np.ones((2, 1))] * 15, 14),
        ([np.ones((1, 2))] * 15, 14),
        ([np.eye(2)] * 11, 10),
        ([np.ones((2, 1))] * 11 + [np.ones((1, 2))], 10),
    ]:
        with pytest.raises(ValueError, match=f"capped at {cap} qubits"):
            kron_all(mats)
    with pytest.raises(ValueError, match="capped at 10 qubits"):
        kron_power(np.eye(2), 11)


def test_apply_product_channel_identity_at_zero_time():
    rng = np.random.default_rng(2)
    op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for kind in CHANNEL_KINDS:
        out = apply_product_channel(op, ChannelSpec(kind, 0.0))
        assert np.max(np.abs(out - op)) < 1e-12


def _kron_factor_product_channel(op, ch):
    # reference: conjugate by the full 2^n x 2^n factor I (x) K (x) I per
    # qubit, in complex arithmetic
    n = op.shape[0].bit_length() - 1
    for q in range(n):
        acc = np.zeros(op.shape, dtype=complex)
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
    # the complex operator, its real part as complex and its real part as
    # float64: the result keeps the input's dtype
    for op in (op, op.real.astype(complex), op.real):
        out = apply_product_channel(op, ch)
        assert out.dtype == op.dtype
        diff = np.max(np.abs(out - _kron_factor_product_channel(op, ch)))
        assert diff <= 1e-14 * np.max(np.abs(op))


def _batched_matmul_product_channel(op, ch):
    # reference: the superoperator applied to each qubit's slot pair by a
    # batched matmul over a (4^q, 4, 4^(n-q-1)) view of the interleaved
    # operator, in the operator's dtype with the exactly real superoperator
    op = np.asarray(op)
    n = op.shape[0].bit_length() - 1
    sup = sum(np.einsum("ij,kl->ikjl", k, k.conj()) for k in ch.kraus_operators()).reshape(4, 4)
    sup = sup.real if not sup.imag.any() else sup
    interleave = [a for q in range(n) for a in (q, n + q)]
    out = op.reshape((2,) * (2 * n)).transpose(interleave)
    for q in range(n):
        out = np.matmul(sup, out.reshape(4**q, 4, 4 ** (n - q - 1)))
    out = out.reshape((2,) * (2 * n)).transpose(np.argsort(interleave))
    return np.ascontiguousarray(out).reshape(op.shape)


@pytest.mark.parametrize("gamma_t", [0.0, 0.37, 5.0])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_apply_product_channel_matches_batched_matmul_reference(n, kind, gamma_t):
    rng = np.random.default_rng(500 + n)
    dim = 2**n
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ch = ChannelSpec(kind, gamma_t)
    for op in (op, op.real.astype(complex), op.real):
        out, ref = apply_product_channel(op, ch), _batched_matmul_product_channel(op, ch)
        assert out.dtype == ref.dtype == op.dtype
        assert np.max(np.abs(out - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))


def _validate_blocks():
    # the rank-one blocks validate evolves: the cat block per (N, eps) and
    # the GHZ block per n
    for n, eps in product(range(2, 9), (0.1, 0.3, math.pi / 4, HALF_PI - 0.1)):
        phi1, phi2 = branch_vectors(CatParams(n, eps))
        yield kron_power(np.outer(phi1, phi2.conj()), n)
    for n in range(1, 9):
        yield kron_power(np.array([[0.0, 1.0], [0.0, 0.0]]), n)


def test_apply_product_channel_is_byte_identical_on_validate_blocks():
    for block, kind, gamma_t in product(_validate_blocks(), CHANNEL_KINDS, (0.05, 0.5, 2.0)):
        ch = ChannelSpec(kind, gamma_t)
        out, ref = apply_product_channel(block, ch), _batched_matmul_product_channel(block, ch)
        assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [0, 1, 3])
def test_apply_product_channel_returns_a_fresh_array(n):
    # at n = 0 no GEMM runs, so only a copy keeps the result apart from op
    rng = np.random.default_rng(700 + n)
    real = rng.normal(size=(2**n, 2**n))
    for op in (real, real + 1j * rng.normal(size=real.shape)):
        for kind in CHANNEL_KINDS:
            out = apply_product_channel(op, ChannelSpec(kind, 0.37))
            assert not np.shares_memory(op, out)
            assert out.flags.c_contiguous and out.dtype == op.dtype


def test_validate_gives_the_oracle_only_real_data(monkeypatch):
    # every array that validate passes to, or gets back from, the oracle
    # entry points it calls is float64 (ghz_fidelities' integer masks aside)
    names = ["apply_one_qubit", "apply_product_channel", "biorthonormal_filter",
             "branch_vectors", "build_cat_state", "build_ghz_state", "cat_amplitudes",
             "dense_trace_norm", "enumerate_loss", "enumerate_protocol", "ghz_fidelities",
             "kron_power", "partial_trace_state"]
    seen = {name: set() for name in names}

    def record(name, func):
        def wrapper(*args):
            result = func(*args)
            for value in (*args, *(result if isinstance(result, tuple) else (result,))):
                if isinstance(value, np.ndarray) and value.dtype.kind in "fc":
                    seen[name].add(value.dtype)
            return result
        return wrapper

    for name in names:
        monkeypatch.setattr(oracle, name, record(name, getattr(oracle, name)))
    assert all(r.passed for r in validation.run_validation(3))
    assert {name for name, dtypes in seen.items() if not dtypes} == {"enumerate_loss"}
    assert set().union(*seen.values()) == {np.dtype(np.float64)}


def test_superoperator_cache_is_bounded_and_keyed_by_value():
    cache = oracle._superoperator
    cache.cache_clear()
    block = kron_power(np.array([[0.0, 1.0], [0.0, 0.0]]), 3)
    first = apply_product_channel(block, ChannelSpec(DEPHASING, 0.37))
    again = apply_product_channel(block, ChannelSpec(DEPHASING, 0.37))
    assert first.tobytes() == again.tobytes()
    assert (cache.cache_info().misses, cache.cache_info().currsize) == (1, 1)
    assert cache(ChannelSpec(DEPHASING, 0.37)) is cache(ChannelSpec(DEPHASING, 0.37))
    assert not cache(ChannelSpec(DEPHASING, 0.37)).flags.writeable
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    for i in range(maxsize + 5):
        apply_product_channel(block, ChannelSpec(CHANNEL_KINDS[i % 2], 0.01 * i))
    assert cache.cache_info().currsize == maxsize
    cache.cache_clear()


def test_state_length_must_be_power_of_two():
    m = np.eye(2)
    for call in (
        lambda s: apply_one_qubit(s, m, 0),
        lambda s: partial_trace_state(s, [0]),
    ):
        with pytest.raises(ValueError, match="power of two"):
            call(np.ones(6))


def test_qubit_indices_are_distinct_integers():
    # a float or bool index is refused, not read as a qubit, and a repeated
    # kept qubit is refused before numpy sees the axes
    s, m = build_ghz_state(3), np.eye(2)
    for call, name in [
        (lambda: apply_one_qubit(s, m, 1.0), "qubit"),
        (lambda: apply_one_qubit(s, m, True), "qubit"),
        (lambda: partial_trace_state(s, [0.0]), "kept qubit"),
    ]:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[0, 2\], got "):
            call()
    with pytest.raises(ValueError, match=r"^kept qubits must be distinct, got \[0, 0\]$"):
        partial_trace_state(s, [0, 0])
    assert partial_trace_state(s, (np.int64(2), 0)).shape == (4, 4)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_dense_trace_norm_real_path_matches_complex_path(n):
    # a phase leaves the singular values alone but makes the SVD complex
    rng = np.random.default_rng(300 + n)
    op = rng.normal(size=(2**n, 2**n))
    real_path = dense_trace_norm(op)
    assert real_path == pytest.approx(dense_trace_norm(op * np.exp(0.3j)), rel=1e-13)


def test_nan_imaginary_part_keeps_the_complex_path():
    op = np.eye(4, dtype=complex)
    op[0, 1] = complex(0.0, math.nan)
    with pytest.raises(np.linalg.LinAlgError):
        dense_trace_norm(op)
    for kind in CHANNEL_KINDS:
        out = apply_product_channel(op, ChannelSpec(kind, 0.37))
        assert out.dtype == np.complex128
        assert np.isnan(out).any()


def test_partial_trace_to_first_cases():
    np.testing.assert_allclose(
        partial_trace_state(build_ghz_state(5), [0]), np.eye(2) / 2, atol=1e-15
    )
    prod = np.zeros(2**4)
    prod[0] = 1.0
    np.testing.assert_allclose(
        partial_trace_state(prod, [0]), np.diag([1.0, 0.0]), atol=1e-15
    )


def test_trace_out_factorizes():
    # tracing qubits of a product operator multiplies in their traces
    rng = np.random.default_rng(8)
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    full = np.kron(np.kron(ops[0], ops[1]), ops[2]).reshape((2,) * 6)
    traced = oracle._trace_out(full, (1,))
    expected = np.trace(ops[0]) * np.trace(ops[2]) * ops[1]
    np.testing.assert_allclose(traced, expected, atol=1e-12)
    scalar = oracle._trace_out(full, ())
    assert scalar.shape == ()
    assert scalar == pytest.approx(np.trace(ops[0]) * np.trace(ops[1]) * np.trace(ops[2]))


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
    out = np.ones((1, 1))
    for m in mats:
        out = np.kron(out, np.asarray(m))
    return out


_RNG = np.random.default_rng(31)
_COLUMN = _RNG.normal(size=(2, 1)) + 1j * _RNG.normal(size=(2, 1))
_ROW = _RNG.normal(size=(1, 2)) + 1j * _RNG.normal(size=(1, 2))
_SQUARE = _RNG.normal(size=(2, 2)) + 1j * _RNG.normal(size=(2, 2))


@pytest.mark.parametrize(
    "mats",
    [
        [],
        [_COLUMN] * 4,
        [_ROW] * 4,
        [_SQUARE, -_SQUARE.T, _SQUARE.conj()],
        [_COLUMN, _SQUARE, _ROW, np.arange(6.0).reshape(3, 2), [[1, -2]], np.eye(2)],
        [np.array([[0.0, -0.0], [-1.0, 2.0]])] * 3,
    ],
)
def test_kron_all_equals_chained_np_kron(mats):
    got, want = kron_all(mats), _chained_kron(mats)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included


def test_kron_all_refuses_factors_of_other_ranks():
    with pytest.raises(ValueError, match="2-D factors"):
        kron_all([_SQUARE, np.complex128(2.0)])
    with pytest.raises(ValueError, match="2-D factors"):
        kron_all([_SQUARE, np.array([1.0, -1.0])])
    with pytest.raises(ValueError, match="2-D factors"):
        kron_all([np.ones((2, 2, 2))])
    # n = 0 is the empty product; n is a count of factors
    assert kron_power(_SQUARE, 0).tobytes() == np.ones((1, 1)).tobytes()
    for n in (-3, True, False, 2.0, 15):
        with pytest.raises(ValueError, match="n must be an integer"):
            kron_power(_SQUARE, n)


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
        q[bin(mask).count("1")] += prob
        branches.append((prob, vec))
    return q, branches


# 0.3 is a validate grid point; at pi/2, c = 0 and signed zeros decide the bytes
@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.3, math.pi / 4, HALF_PI - 0.1, HALF_PI])
@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_protocol_equals_the_per_mask_loop(n, eps):
    params = CatParams(n, eps)
    q_ref, ref = _per_mask_protocol(params)
    q, probs, branches = enumerate_protocol(params)
    assert q.tobytes() == q_ref.tobytes()
    assert probs.shape == (2**n,) and branches.shape == (2**n, 2**n) == (len(ref), 2**n)
    assert probs.tobytes() == np.array([prob for prob, _ in ref]).tobytes()
    for vec, (_, vec_ref) in zip(branches, ref):
        assert np.array_equal(vec, vec_ref)
        assert vec.tobytes() == vec_ref.tobytes()


@pytest.mark.parametrize("eps", [*filter(no_normal_k2, EPS), 1e-320, 1e-200, 1e-160])
def test_filter_refuses_eps_with_no_normal_k_squared(eps):
    # k^2 ~ eps^2 / 2 is 0 or subnormal here: A came back NaN, 0 or digits off
    for func in (biorthonormal_filter, enumerate_protocol):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[5e-324, |normal k"):
            func(CatParams(2, eps))


def test_filter_just_above_the_subnormal_edge():
    p = CatParams(2, 1e-150)
    a, _ = biorthonormal_filter(p)
    assert np.max(np.abs(a - build_filter(p)[0])) <= 2.2e-16


def _success_states(params):
    # the success branches (mask >= 1) above the probability floor, each
    # normalized, with their masks: what validate reads the fidelity of
    _, probs, branches = enumerate_protocol(params)
    masks = [m for m in range(1, len(probs)) if probs[m] > 1e-300]
    return [branches[m] / math.sqrt(probs[m]) for m in masks], masks


def test_enumerate_protocol_hand_case():
    q, probs, _ = enumerate_protocol(CatParams(2, math.pi / 3))
    np.testing.assert_allclose(q, [0.4, 0.4, 0.2], atol=1e-12)
    assert abs(sum(probs) - 1.0) < 1e-12


def test_enumerate_protocol_half_pi_single_branch():
    n = 4
    q, probs, branches = enumerate_protocol(CatParams(n, HALF_PI))
    assert q[n] == pytest.approx(1.0, abs=1e-12)
    full_success = branches[-1] / math.sqrt(probs[-1])  # mask 2^n - 1: every qubit succeeds
    assert ghz_fidelities([full_success], [2**n - 1])[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,eps", [(4, 0.8), (5, 0.3), (6, 1.2)])
def test_enumerate_protocol_ghz_fidelities(n, eps):
    q, _, _ = enumerate_protocol(CatParams(n, eps))
    closed = np.fromiter(outcome_distribution(CatParams(n, eps)).q, float, n + 1)
    np.testing.assert_allclose(q, closed, atol=1e-10)
    for fid in ghz_fidelities(*_success_states(CatParams(n, eps))):
        assert abs(fid - 1.0) < 1e-10


def _partial_trace_ghz_fidelity(state, mask):
    # reference: the reduced state on the successful qubits from a dense
    # partial trace, against the GHZ vector on as many qubits
    n = state.size.bit_length() - 1
    keep = [j for j in range(n) if (mask >> (n - 1 - j)) & 1]
    rho = partial_trace_state(state, keep)
    ghz = build_ghz_state(len(keep))
    return float((ghz.conj() @ rho @ ghz).real)


def _exact_ghz_fidelity(state, mask):
    # sum_{i & mask == 0} |psi[i] + psi[i | mask]|^2 / 2 in rational arithmetic
    total = Fraction(0)
    for i in range(state.size):
        if i & mask == 0:
            a, b = complex(state[i]), complex(state[i | mask])
            re, im = Fraction(a.real) + Fraction(b.real), Fraction(a.imag) + Fraction(b.imag)
            total += re * re + im * im
    return total / 2


@pytest.mark.parametrize("eps", [0.1, math.pi / 4, HALF_PI - 0.1, HALF_PI])
@pytest.mark.parametrize("n", range(1, 9))
def test_ghz_fidelity_matches_the_partial_trace_form(n, eps):
    ulp = np.finfo(float).eps
    states, masks = _success_states(CatParams(n, eps))
    stacked = ghz_fidelities(states, masks)
    assert stacked.shape == (len(masks),)
    for state, mask, fid in zip(states, masks, stacked.tolist()):
        # one implementation: each stacked row is its own one-row call
        assert fid == ghz_fidelities([state], [mask])[0]
        # within 4 ulp of the exact sum over the same amplitudes (2.0 ulp
        # seen); the partial trace form rounds more, up to 1.0e-15 from the
        # exact sum (N = 7, eps = pi/4), so the two differ by up to 1.22e-15
        # (N = 8, eps = pi/4), 5.5 ulp
        assert abs(Fraction(fid) - _exact_ghz_fidelity(state, mask)) <= 4 * ulp
        assert abs(fid - _partial_trace_ghz_fidelity(state, mask)) <= 8 * ulp


def test_ghz_fidelities_refuse_bad_input():
    states = np.stack([build_ghz_state(3)] * 2)
    np.testing.assert_allclose(ghz_fidelities(states, [7, 4]), [1.0, 0.5], atol=1e-15)
    for bad_states, masks, match in [
        (states[0], [7], "array of states"),
        (states[:, :6], [7, 7], "power of two"),
        (states, [7], "one mask per state"),
        (states, [7, 0], "one mask per state"),
        (states, [7, 8], "one mask per state"),
    ]:
        with pytest.raises(ValueError, match=match):
            ghz_fidelities(bad_states, masks)


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
    assert enumerate_loss(p, 0.0) == pytest.approx(1.0, abs=1e-12)
    hp = CatParams(5, HALF_PI)
    assert enumerate_loss(hp, 0.4) == pytest.approx(0.6**5, rel=1e-9)
    p6 = CatParams(6, 0.7)
    assert enumerate_loss(p6, 0.3) == pytest.approx(
        cat_loss_suppression(p6, 0.3), abs=1e-9
    )
    assert enumerate_loss(p6, 0.3) == pytest.approx(
        (1 - 0.3 * (1 - math.cos(0.7))) ** 6, rel=1e-12
    )


def _traced_block(op, kept):
    # partial trace onto the kept qubits, one np.trace per traced qubit's
    # row/column axis pair, independent of the kernel enumerate_loss runs;
    # the highest qubit goes first, so the lower axes keep their numbers
    n = op.shape[0].bit_length() - 1
    tensor = op.reshape((2,) * (2 * n))
    for q in reversed(range(n)):
        if q not in kept:
            tensor = np.trace(tensor, axis1=q, axis2=tensor.ndim // 2 + q)
    return tensor.reshape(2 ** len(kept), 2 ** len(kept))


def _per_subset_loss_reference(params, lam):
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
        weight = lam ** len(lost) * (1.0 - lam) ** len(kept)
        if weight == 0.0:
            continue
        traced = _traced_block(full_block, kept)
        numer = float(np.linalg.svd(traced, compute_uv=False).sum())
        total += weight * numer / reference[len(kept)]
    return total


@pytest.mark.parametrize("eps", [1e-3, 0.3, math.pi / 4, HALF_PI])
@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_loss_matches_per_subset_reference(n, eps):
    params = CatParams(n, eps)
    for lam in (0.0, 0.1, 0.5, 1.0):
        assert abs(enumerate_loss(params, lam) - _per_subset_loss_reference(params, lam)) <= 1e-13
