import inspect
import math
import pickle
import sys

import numpy as np
import pytest
from mpmath import mp, mpf

from catsize.core import CatParams, Linspace, entropy_s1, normalization_constant, reduced_rho1
from catsize.oracle import (
    branch_vectors,
    build_cat_state,
    dense_trace_norm,
    kron_power,
    partial_trace_state,
)
import domain
from domain import HALF_PI

EPS_GRID = [1e-6, 0.01, 0.1, 0.3, math.pi / 4, 1.2, HALF_PI - 0.1, HALF_PI]
N_GRID = [1, 2, 3, 7, 100, 10**5]


def test_params_record_behaviour():
    # a value record: made by keyword as the README makes it, compared and
    # hashed by value, immutable, and checked however it is built
    p = CatParams(N=2, epsilon=0.5)
    assert p == CatParams(2, 0.5) and hash(p) == hash(CatParams(2, 0.5))
    assert p != CatParams(2, 0.25)
    assert len({p, CatParams(2, 0.5), CatParams(3, 0.5)}) == 2
    assert repr(p) == "CatParams(N=2, epsilon=0.5)"
    q = CatParams(np.int64(3), np.float32(0.5))
    assert (type(q.N), type(q.epsilon)) == (int, float)
    # -0.0 is stored as +0.0, so no output prints "epsilon": -0
    assert math.copysign(1.0, CatParams(2, -0.0).epsilon) == 1.0
    for attr in ("N", "epsilon", "other"):
        with pytest.raises(AttributeError):
            setattr(p, attr, 1)
    assert p._replace(N=7) == CatParams(7, 0.5)
    with pytest.raises(ValueError, match="epsilon must lie"):
        p._replace(epsilon=2.0)


def test_params_reject_n_beyond_largest_double():
    # every closed form multiplies N into a double, so N must fit in one; the
    # refusals past it are inputs of the integer table below, this keeps the end
    assert CatParams(int(sys.float_info.max), 0.1).N == int(sys.float_info.max)
    assert CatParams(10**38, 0.1).N == 10**38


def test_counts_beyond_largest_double_are_refused():
    # the GHZ sizes and the curves' n_ref share CatParams' bound on N; the
    # refusals past it are inputs of the integer table below, this keeps the end
    from catsize.decoherence import decay_curve, ghz_offdiag_norm
    from catsize.loss import ghz_loss_suppression, loss_curve

    p = CatParams(10, 0.1)
    for call in (
        lambda n: ghz_offdiag_norm(n, 0.5),
        lambda n: ghz_loss_suppression(n, 0.5),
        lambda n: decay_curve(p, n, Linspace(0.5, 2)),
        lambda n: loss_curve(p, n, Linspace(0.5, 2)),
    ):
        call(int(sys.float_info.max))


def test_the_domain_table():
    # each point has a reason, is taken as it is and comes once, ascending; no predicate keeps all
    assert [CatParams(2, e).epsilon for e in domain.EPS] == sorted(set(domain.EPS)) == domain.EPS
    assert [CatParams(n, 0.5).N for n in domain.NS] == sorted(set(domain.NS)) == domain.NS
    assert all(reason for _, reason in (*domain.EPS_POINTS, *domain.N_POINTS))
    for keep in filter(inspect.isfunction, vars(domain).values()):
        points = domain.EPS if keep.__code__.co_varnames[0] == "eps" else domain.NS
        assert 0 < sum(map(keep, points)) < len(points), keep.__name__


@pytest.mark.parametrize("eps", EPS_GRID)
def test_trig_accessors(eps):
    p = CatParams(3, eps)
    assert abs(p.c_eps**2 + p.s_eps**2 - 1.0) < 1e-15
    assert abs(p.one_minus_c - (1.0 - p.c_eps)) < 1e-15


def test_one_minus_c_within_one_ulp_where_cos_is_at_most_half():
    # on eps in [pi/3, pi/2] the half-angle form 2 sin^2(eps/2) is off by up
    # to 1.9 ulp; the difference 1 - cos(eps) stays within 0.75
    worst = 0.0
    with mp.workdps(50):
        for eps in np.linspace(math.pi / 3, HALF_PI, 20001).tolist():
            ref = 1 - mp.cos(mpf(eps))
            err = abs(mpf(CatParams(1, eps).one_minus_c) - ref) / math.ulp(float(ref))
            worst = max(worst, float(err))
    assert worst <= 1.0
    assert CatParams(1, HALF_PI).one_minus_c == 1.0 - math.cos(math.pi / 2)


@pytest.mark.parametrize("n", [1, 2, 5, 17])
@pytest.mark.parametrize("eps", [0.01, 0.3, 1.0, HALF_PI - 0.1])
def test_log_cn_matches_direct_power(n, eps):
    # exp(N ln c) vs repeated-multiplication power, where the latter is safe
    p = CatParams(n, eps)
    assert math.exp(p.log_cN) == pytest.approx(math.cos(eps) ** n, rel=1e-12)


def test_term_overlap_trivial_cases():
    # exp(log_cN) is the branch overlap <phi1|phi2>^N = c^N
    for n in [1, 4, 9]:
        assert math.exp(CatParams(n, 0.0).log_cN) == 1.0
        assert math.exp(CatParams(n, HALF_PI).log_cN) < 1e-15
        p = CatParams(n, 0.7)
        phi1, phi2 = branch_vectors(p)
        dense = np.vdot(kron_power(phi1.reshape(2, 1), n), kron_power(phi2.reshape(2, 1), n))
        assert dense.real == pytest.approx(math.exp(p.log_cN), rel=1e-12)


def test_term_overlap_headline_regime():
    # exact log-domain value at (N=1e6, eps=1e-3), frozen from a 60-digit
    # evaluation: c^N = 0.60653060916840040...; its square, the overlap of
    # the two N-qubit branches, 0.36787937985819088..., is within 0.1% of e^-1
    c_n = math.exp(CatParams(10**6, 1e-3).log_cN)
    assert c_n == pytest.approx(0.6065306091684004, rel=1e-14)
    assert c_n**2 == pytest.approx(0.3678793798581909, rel=1e-14)
    assert abs(c_n**2 - math.exp(-1)) / math.exp(-1) < 1e-3


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_term_overlap_power_identity(n, eps):
    # log-domain powers compose exactly: log(N-qubit) == N * log(1-qubit)
    single = CatParams(1, eps).log_cN
    assert CatParams(n, eps).log_cN == n * single


def test_normalization_trivial_and_hand_values():
    assert normalization_constant(CatParams(5, HALF_PI)) == pytest.approx(2.0, abs=1e-12)
    assert normalization_constant(CatParams(5, 0.0)) == 4.0
    # K(3, pi/3) = 2 (1 + 0.5^3) = 2.25
    assert normalization_constant(CatParams(3, math.pi / 3)) == pytest.approx(
        2.25, abs=1e-14
    )


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("eps", EPS_GRID)
def test_normalization_overlap_identity(n, eps):
    # K - 2 = 2 c^N, against a 30-digit power
    p = CatParams(n, eps)
    k_minus_2 = normalization_constant(p) - 2.0
    with mp.workdps(30):
        other = float(2 * mp.cos(mpf(eps)) ** n)
    if other < 1e-15:
        # 2 c^N below the absolute resolution of K = 2 + 2 c^N
        assert k_minus_2 <= 1e-15
    else:
        assert k_minus_2 == pytest.approx(other, rel=1e-12)


def test_phi_vectors_and_dyad():
    # unit branch vectors with overlap c; the dyad |phi1><phi2| has unit trace norm
    p = CatParams(2, 0.7)
    phi1, phi2 = branch_vectors(p)
    assert np.allclose(phi1, [1, 0])
    assert abs(np.vdot(phi2, phi2) - 1.0) < 1e-15
    assert abs(np.vdot(phi1, phi2) - p.c_eps) < 1e-15
    assert dense_trace_norm(np.outer(phi1, phi2.conj())) == pytest.approx(1.0, abs=1e-15)


def test_reduced_rho1_rejects_small_n():
    with pytest.raises(ValueError):
        reduced_rho1(CatParams(1, 0.3))
    with pytest.raises(ValueError):
        entropy_s1(CatParams(1, 0.3))


def test_reduced_rho1_trivial_cases():
    np.testing.assert_allclose(
        reduced_rho1(CatParams(4, HALF_PI)), np.diag([0.5, 0.5]), atol=1e-12
    )
    np.testing.assert_allclose(
        reduced_rho1(CatParams(4, 0.0)), np.diag([1.0, 0.0]), atol=1e-15
    )


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("eps", [0.1, 0.4, math.pi / 4, HALF_PI - 0.1, HALF_PI])
def test_reduced_rho1_matches_oracle_partial_trace(n, eps):
    p = CatParams(n, eps)
    dense = partial_trace_state(build_cat_state(p), [0])
    assert np.max(np.abs(dense - reduced_rho1(p))) < 1e-12


@pytest.mark.parametrize("n", [2, 6, 50, 10**6])
@pytest.mark.parametrize("eps", EPS_GRID)
def test_reduced_rho1_is_density_operator(n, eps):
    rho = reduced_rho1(CatParams(n, eps))
    assert rho.shape == (2, 2)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_entropy_trivial_cases():
    assert entropy_s1(CatParams(4, HALF_PI)) == pytest.approx(1.0, abs=1e-12)
    assert entropy_s1(CatParams(4, 0.0)) == 0.0


def test_entropy_headline_regime():
    # frozen from a 60-digit evaluation of the closed form at (1e7, 1e-3):
    # S1 = 5.7701406330616796e-06 bits.  The leading-log asymptote
    # -eps^2 log2(eps)/2 = 4.9829e-06 sits ~15.8% below it at this eps; its
    # relative error only decays like 1/log2(1/eps).
    s = entropy_s1(CatParams(10**7, 1e-3))
    assert s == pytest.approx(5.77014063306168e-06, rel=1e-12)
    asym = -(1e-3) ** 2 * math.log2(1e-3) / 2
    assert 0.14 < (s - asym) / asym < 0.17


def test_entropy_approaches_asymptote_slowly():
    # with N eps^2 = 10 fixed, the relative gap to -eps^2 log2(eps)/2 decays
    # only like 1/log2(1/eps): the scaled gap stays order one
    gaps = []
    for eps, n in [(1e-3, 10**7), (1e-5, 10**11), (1e-8, 10**17)]:
        s = entropy_s1(CatParams(n, eps))
        asym = -(eps**2) * math.log2(eps) / 2
        gap = (s - asym) / asym
        gaps.append(gap)
        assert 1.3 < gap * (-math.log2(eps)) < 1.7
    assert gaps[0] > gaps[1] > gaps[2] > 0


@pytest.mark.parametrize("n", [2, 4, 9])
@pytest.mark.parametrize("eps", [0.2, 0.8, math.pi / 4, HALF_PI])
def test_entropy_consistent_with_generic_2x2_route(n, eps):
    # the closed form against -sum lam log2 lam over the eigvalsh eigenvalues
    p = CatParams(n, eps)
    lams = np.linalg.eigvalsh(reduced_rho1(p)).tolist()
    generic = -sum(lam * math.log2(lam) for lam in lams if lam > 0.0)
    assert entropy_s1(p) == pytest.approx(generic, abs=1e-12)


def test_entropy_invariant_under_basis_rotation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        eps = float(rng.uniform(0.05, HALF_PI))
        p = CatParams(n, eps)
        rho = reduced_rho1(p).astype(complex)
        # random unitary from a QR decomposition
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        rotated = u @ rho @ u.conj().T
        lams = np.linalg.eigvalsh(rotated).tolist()
        rotated_entropy = -sum(lam * math.log2(lam) for lam in lams if lam > 0.0)
        assert rotated_entropy == pytest.approx(entropy_s1(p), abs=1e-10)


@pytest.mark.parametrize("endpoint", [0.0, -0.0, -1.0, math.inf, math.nan])
def test_linspace_refuses_an_endpoint_not_finite_and_positive(endpoint):
    bound = r"^grid endpoint must lie in \[5e-324, 1\.7976931348623157e\+308\], got "
    with pytest.raises(ValueError, match=bound):
        Linspace(endpoint, 3)


@pytest.mark.parametrize("steps", [1, 0, -5, 2.0, 2.5])
def test_linspace_refuses_fewer_than_2_points_or_a_non_integer_count(steps):
    with pytest.raises(ValueError, match=rf"^steps must be an integer in \[2, {sys.maxsize}\]"):
        Linspace(1.0, steps)


def test_linspace_holds_no_more_points_than_len_can_count():
    # len() of a larger grid would raise OverflowError, in the tracer's
    # point count and wherever a caller sizes the grid
    assert len(Linspace(1.0, sys.maxsize)) == sys.maxsize
    for steps in (sys.maxsize + 1, 2**1100):
        bound = rf"^steps must be an integer in \[2, {sys.maxsize}\]"
        with pytest.raises(ValueError, match=bound):
            Linspace(1.0, steps)


@pytest.mark.parametrize(
    "grid",
    [[0.0, 0.5], (0.0, 0.5), np.linspace(0.0, 0.5, 2), range(2)],
    ids=lambda g: type(g).__name__,
)
def test_curves_take_only_a_linspace(grid):
    from catsize.decoherence import decay_curve
    from catsize.loss import loss_curve

    p = CatParams(10, 0.1)
    with pytest.raises(TypeError, match="gamma_t grid must be a Linspace"):
        decay_curve(p, 1, grid)
    with pytest.raises(TypeError, match="lambda grid must be a Linspace"):
        loss_curve(p, 1, grid)


def test_curves_and_grids_compare_by_value():
    from catsize.decoherence import decay_curve
    from catsize.loss import loss_curve

    p = CatParams(10, 0.1)
    for make in (decay_curve, loss_curve):
        a, b = make(p, 1, Linspace(1.0, 3)), make(p, 1, Linspace(1.0, 3))
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        assert make(p, 1, Linspace(1.0, 4)) != a
    assert Linspace(1.0, 3) != Linspace(1.0, 4)
    assert Linspace(1.0, 3) != Linspace(2.0, 3)
    assert Linspace(1.0, 3).__eq__((1.0, 3)) is NotImplemented


def _integer_entry_points():
    # (id, call, name, lo, hi): each integer input of the library with the
    # bounds its refusal names
    from catsize import distillation
    from catsize.decoherence import decay_curve, ghz_offdiag_norm
    from catsize.loss import ghz_loss_suppression, loss_curve
    from catsize.oracle import (MAX_ENUM_QUBITS, MAX_STATE_QUBITS, apply_one_qubit,
                                build_ghz_state, cat_amplitudes, enumerate_loss,
                                enumerate_protocol)
    from catsize.report import build_effective_size_report
    from catsize.validation import run_validation

    p, largest = CatParams(8, 0.5), sys.float_info.max

    def unchecked(n):
        # a record made past CatParams' own check, so that the cap's check sees n
        return tuple.__new__(CatParams, (n, 0.5))

    return [
        ("CatParams-N", lambda v: CatParams(v, 0.1), "N", 1, largest),
        ("decay_curve-n_ref", lambda v: decay_curve(p, v, Linspace(1.0, 2)), "n_ref", 1, largest),
        ("loss_curve-n_ref", lambda v: loss_curve(p, v, Linspace(1.0, 2)), "n_ref", 1, largest),
        ("ghz_offdiag_norm-n", lambda v: ghz_offdiag_norm(v, 0.5), "n", 1, largest),
        ("ghz_loss_suppression-n", lambda v: ghz_loss_suppression(v, 0.5), "n", 1, largest),
        ("build_ghz_state-n", build_ghz_state, "n", 1, MAX_STATE_QUBITS),
        ("Linspace-steps", lambda v: Linspace(1.0, v), "steps", 2, sys.maxsize),
        ("kron_power-n", lambda v: kron_power(np.eye(2), v), "n", 0, MAX_STATE_QUBITS),
        ("run_validation-max_n", run_validation, "max_n", 2, MAX_ENUM_QUBITS),
        ("simulate_protocol-trials", lambda v: distillation.simulate_protocol(p, v, 0),
         "trials", 1, distillation.MAX_TRIALS),
        ("simulate_protocol-seed", lambda v: distillation.simulate_protocol(p, 10, v),
         "seed", 0, 2**64 - 1),
        ("outcome_distribution-N", lambda v: distillation.outcome_distribution(unchecked(v)),
         "N", 1, distillation.MAX_DISTRIBUTION_N),
        ("simulate_protocol-N", lambda v: distillation.simulate_protocol(unchecked(v), 10, 0),
         "N", 1, distillation.MAX_DISTRIBUTION_N),
        ("cat_amplitudes-N", lambda v: cat_amplitudes(unchecked(v)), "N", 1, MAX_STATE_QUBITS),
        ("enumerate_protocol-N", lambda v: enumerate_protocol(unchecked(v)),
         "N", 1, MAX_ENUM_QUBITS),
        ("enumerate_loss-N", lambda v: enumerate_loss(unchecked(v), 0.5),
         "N", 1, MAX_ENUM_QUBITS),
        ("reduced_rho1-N", lambda v: reduced_rho1(unchecked(v)), "N", 2, largest),
        ("entropy_s1-N", lambda v: entropy_s1(unchecked(v)), "N", 2, largest),
        ("build_effective_size_report-N", lambda v: build_effective_size_report(unchecked(v)),
         "N", 2, largest),
        ("apply_one_qubit-qubit", lambda v: apply_one_qubit(build_ghz_state(3), np.eye(2), v),
         "qubit", 0, 2),
        ("partial_trace_state-keep", lambda v: partial_trace_state(build_ghz_state(3), [v]),
         "kept qubit", 0, 2),
    ]


@pytest.mark.parametrize("entry", _integer_entry_points(), ids=lambda e: e[0])
def test_every_integer_input_is_refused_by_one_rule(entry):
    _, call, name, lo, hi = entry
    for value in (True, 2.0, "3", lo - 1, int(hi) + 1, 2**1100):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value).startswith(f"{name} must be an integer in [{lo}, {hi}], got ")
    assert str(info.value).endswith("got a 1101-bit integer")


def _real_entry_points():
    # (id, call, name, lo, hi): each real input of the library and the CLI
    # with the bounds its refusal names; call returns what the entry point
    # returns, or the float it keeps
    import contextlib
    import io

    from catsize.cli import main
    from catsize.decoherence import cat_offdiag_norm, ghz_offdiag_norm
    from catsize.distillation import build_filter
    from catsize.loss import LossCurve, cat_loss_suppression, ghz_loss_suppression, loss_curve
    from catsize.oracle import DEPHASING, ChannelSpec, biorthonormal_filter, enumerate_loss

    p, largest = CatParams(2, 0.5), sys.float_info.max

    def unchecked(eps):
        # a record made past CatParams' own check, so that the filter's check sees eps
        return tuple.__new__(CatParams, (2, eps))

    def grid(end):
        # a Linspace made past its own check, so that the curve's check sees
        # end; a NaN step passes the record's sorted check at any end
        g = Linspace(1.0, 2)
        g.endpoint, g._step = end, math.nan
        return g

    def overlap(v):
        # --epsilon-sq-overlap through the CLI, its one error line raised again
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["effective-size", "--n", "10", f"--epsilon-sq-overlap={v}"])
        if code:
            assert code == 2 and err.getvalue().count("\n") == 1
            raise ValueError(err.getvalue().removeprefix("error: "))

    return [
        ("CatParams-epsilon", lambda v: CatParams(2, v).epsilon, "epsilon", 0.0, HALF_PI),
        ("ChannelSpec-gamma_t", lambda v: ChannelSpec(DEPHASING, v).gamma_t,
         "gamma_t", 0.0, math.inf),
        ("ghz_offdiag_norm-gamma_t", lambda v: ghz_offdiag_norm(2, v), "gamma_t", 0.0, math.inf),
        ("cat_offdiag_norm-gamma_t", lambda v: cat_offdiag_norm(p, v), "gamma_t", 0.0, math.inf),
        ("ghz_loss_suppression-lam", lambda v: ghz_loss_suppression(2, v), "lam", 0.0, 1.0),
        ("cat_loss_suppression-lam", lambda v: cat_loss_suppression(p, v), "lam", 0.0, 1.0),
        ("enumerate_loss-lam", lambda v: enumerate_loss(p, v), "lam", 0.0, 1.0),
        ("Linspace-endpoint", lambda v: Linspace(v, 3).endpoint,
         "grid endpoint", 5e-324, largest),
        ("loss_curve-endpoint", lambda v: loss_curve(p, 1, grid(v)),
         "lambda grid endpoint", 0.0, 1.0),
        ("LossCurve-endpoint", lambda v: LossCurve(p, 1, grid(v)),
         "lambda grid endpoint", 0.0, 1.0),
        ("LossCurve._replace-endpoint",
         lambda v: loss_curve(p, 1, Linspace(1.0, 2))._replace(grid=grid(v)),
         "lambda grid endpoint", 0.0, 1.0),
        ("cli-epsilon_sq_overlap", overlap, "--epsilon-sq-overlap", 0.0, 1.0),
        ("build_filter-epsilon", lambda v: build_filter(unchecked(v)),
         "epsilon", 5e-324, HALF_PI),
        ("biorthonormal_filter-epsilon", lambda v: biorthonormal_filter(unchecked(v)),
         "epsilon", 5e-324, HALF_PI),
    ]


@pytest.mark.parametrize("entry", _real_entry_points(), ids=lambda e: e[0])
def test_every_real_input_is_refused_by_one_rule(entry):
    _, call, name, lo, hi = entry
    refused = [math.nan, -math.inf, math.nextafter(lo, -math.inf)]
    if hi < math.inf:
        refused.append(math.nextafter(hi, math.inf))
    if hi in (sys.float_info.max, math.inf):
        # ints past every double, e.g. ghz_offdiag_norm(2, 2**1024) and
        # ChannelSpec(DEPHASING, 10**5000): float() raised OverflowError
        refused += [2**1024, 10**5000]
    for value in refused:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value).startswith(f"{name} must lie in [{lo}, {hi}], got ")
    for value in (lo, hi):
        try:
            call(value)
        except ValueError as exc:
            # the one later check an end may meet: eps = 5e-324 has no normal k^2
            assert str(exc).startswith("biorthonormal filter needs a normal k^2")
    out = call(np.float64(0.5))
    assert type(out) is float or not isinstance(out, float)  # never a numpy.float64


@pytest.mark.parametrize(
    "call", [lambda v: CatParams(2, v), lambda v: Linspace(v, 3)], ids=["CatParams", "Linspace"]
)
def test_an_int_past_4300_digits_is_refused_by_the_rule(call):
    # repr of such an int raises its own ValueError, so the rule gives its bit length
    with pytest.raises(ValueError, match=r" must lie in \[.*\], got a 16610-bit integer$"):
        call(10**5000)


def test_numpy_integers_are_taken_as_python_ints():
    from catsize.core import _check_int
    from catsize.decoherence import decay_curve
    from catsize.distillation import simulate_protocol
    from catsize.validation import run_validation

    assert type(_check_int(np.int64(3), "n")) is int
    assert type(CatParams(np.int64(3), 0.1).N) is int
    curve = decay_curve(CatParams(3, 0.1), np.int64(2), Linspace(1.0, np.int64(3)))
    assert (type(curve.n_ref), len(curve.grid)) == (int, 3)
    res = simulate_protocol(CatParams(3, 0.1), np.int64(10), np.int64(2**63 - 1))
    assert (type(res.trials), type(res.seed)) == (int, int)
    assert kron_power(np.eye(2), np.int64(2)).shape == (4, 4)
    assert len(run_validation(np.int64(2))) > 0
