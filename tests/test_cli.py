import csv
import io
import json
import math
import re
import sys
import time
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from catsize import distillation
from catsize.cli import main
from catsize.core import CatParams, Linspace, expected_n
from catsize.decoherence import cat_offdiag_norm, ghz_offdiag_norm
from catsize.distillation import outcome_distribution
from catsize.report import build_effective_size_report
from domain import REFUSED

PI_3 = math.pi / 3

REPORT_KEYS = [
    "N",
    "epsilon",
    "n_decoherence",
    "n_distill_mean",
    "n_distill_upper_exact",
    "n_distill_upper_asymptotic",
    "n_loss",
    "reference_N_eps_sq",
]


# command and endpoint flag of each curve
DECAY_GRID = ("decoherence-curve", "--gamma-t-max")
LOSS_GRID = ("loss-curve", "--lambda-max")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_builder_invariants():
    for n, eps in [(2, 0.2), (100, 1.0), (10**6, 1e-3)]:
        p = CatParams(n, eps)
        r = build_effective_size_report(p)
        assert r.reference_N_eps_sq == n * eps**2
        for size in (r.n_decoherence, r.n_distill_mean, r.n_distill_upper_exact, r.n_loss):
            assert 0.0 <= size <= n
        if 0.0 < eps < math.pi / 2:
            assert r.n_loss <= r.n_decoherence


def test_effective_size_headline(capsys):
    code, out, _ = run_cli(
        capsys, "effective-size", "--n", "1000000", "--epsilon", "0.001"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["n_decoherence"] - 1.0) < 1e-5
    assert payload["n_distill_mean"] == pytest.approx(0.3112296494569457, rel=1e-13)
    assert abs(payload["n_loss"] - 0.5) / 0.5 < 1e-6
    # key order is part of the contract
    pairs = json.loads(out, object_pairs_hook=list)
    assert [k for k, _ in pairs] == REPORT_KEYS


def test_effective_size_ghz_fixture(capsys):
    code, out, _ = run_cli(capsys, "effective-size", "--n", "10", "--epsilon", "1.5707963")
    assert code == 0
    payload = json.loads(out)
    for key in ("n_decoherence", "n_distill_mean", "n_distill_upper_exact", "n_loss"):
        assert abs(payload[key] - 10.0) < 1e-6


def test_effective_size_product_fixture(capsys):
    code, out, _ = run_cli(capsys, "effective-size", "--n", "100", "--epsilon", "0")
    assert code == 0
    payload = json.loads(out)
    for key in (
        "n_decoherence",
        "n_distill_mean",
        "n_distill_upper_exact",
        "n_distill_upper_asymptotic",
        "n_loss",
        "reference_N_eps_sq",
    ):
        assert payload[key] == 0.0


def test_json_round_trip_exact(capsys):
    _, out, _ = run_cli(capsys, "effective-size", "--n", "123", "--epsilon", "0.37")
    payload = json.loads(out)
    report = build_effective_size_report(CatParams(123, 0.37))
    for key, value in report.to_payload().items():
        assert payload[key] == value  # 17 significant digits round-trip doubles


def test_epsilon_sq_overlap_alternative(capsys):
    code, out, _ = run_cli(
        capsys, "effective-size", "--n", "50", "--epsilon-sq-overlap", "0.25"
    )
    assert code == 0
    assert json.loads(out)["epsilon"] == pytest.approx(math.asin(0.5), rel=1e-15)
    # both flags at once, or neither, is a usage error that argparse refuses
    for flags in (["--epsilon", "0.1", "--epsilon-sq-overlap", "0.25"], []):
        with pytest.raises(SystemExit) as info:
            main(["effective-size", "--n", "50", *flags])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--epsilon" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["effective-size", "--n", "2", "--epsilon", "-0.0"],
        ["effective-size", "--n", "2", "--epsilon-sq-overlap", "-0.0"],
        ["distill-sim", "--n", "2", "--epsilon", "-0.0", "--trials", "3", "--seed", "1"],
    ],
)
def test_negative_zero_epsilon_prints_zero(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert '"epsilon": 0,' in out and '"epsilon": -0' not in out


class _NoStdout(io.TextIOBase):
    # the first write fails the test, so a row that stopped being refused
    # cannot fill memory with its output
    def write(self, text):
        raise AssertionError(f"a refused input wrote {text[:80]!r}")


@pytest.mark.parametrize(
    "argv, message",
    REFUSED,
    ids=[re.sub(r"\d{30,}", lambda m: f"{len(m[0])}-digit-int", argv) for argv, _ in REFUSED],
)
def test_refused_input_exits_2_with_one_error_line(argv, message):
    # each row of the one table: exit 2 within 0.5 s, nothing on stdout,
    # exactly its error line on stderr and no warning
    err = io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(), redirect_stdout(_NoStdout()), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv.split())
    assert time.perf_counter() - start < 0.5
    assert (code, err.getvalue()) == (2, f"error: {message}\n")


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "effective-size", "--n", "1", "--epsilon", "0.3")
    assert code == 2
    code, _, err = run_cli(capsys, "effective-size", "--n", "10", "--epsilon", "1.8")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["effective-size", "--n", "10", "--epsilon", "nan"],
        ["effective-size", "--n", "10", "--epsilon", "inf"],
        ["effective-size", "--n", "10", "--epsilon", "-inf"],
        ["effective-size", "--n", "10", "--epsilon=-inf"],
        ["distill-sim", "--n", "10", "--epsilon", "nan"],
        ["effective-size", "--n", "10", "--epsilon-sq-overlap", "nan"],
        ["decoherence-curve", "--n", "10", "--epsilon", "0.5", "--gamma-t-max", "nan"],
        ["loss-curve", "--n", "10", "--epsilon", "0.5", "--lambda-max", "nan"],
        ["loss-curve", "--n", "10", "--epsilon", "0.5", "--lambda-max", "inf"],
    ],
)
def test_non_finite_flags_exit_2(capsys, argv):
    # every range check is false for nan, so nan is refused like any bad
    # value; argparse itself refuses "-inf" as a missing argument
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err


def test_decoherence_curve_minimal(capsys):
    code, out, _ = run_cli(
        capsys,
        "decoherence-curve",
        "--n", "8", "--epsilon", "0.5", "--gamma-t-max", "1", "--steps", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma_t,ghz_norm,cat_norm"
    assert lines[1] == "0,1,1"
    assert len(lines) == 3


def test_decoherence_curve_ghz_columns_identical(capsys):
    code, out, _ = run_cli(
        capsys,
        "decoherence-curve",
        "--n", "6", "--epsilon", str(math.pi / 2), "--n-ref", "6",
        "--gamma-t-max", "2", "--steps", "9",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        _, g, c = line.split(",")
        assert abs(float(g) - float(c)) < 1e-12


def test_decoherence_curve_values_match_closed_forms(capsys):
    n, eps, n_ref = 8, 0.5, 3
    code, out, _ = run_cli(
        capsys,
        "decoherence-curve",
        "--n", str(n), "--epsilon", str(eps), "--n-ref", str(n_ref),
        "--gamma-t-max", "1.5", "--steps", "7",
    )
    assert code == 0
    p = CatParams(n, eps)
    for line in out.splitlines()[1:]:
        t, g, c = (float(v) for v in line.split(","))
        assert g == pytest.approx(ghz_offdiag_norm(n_ref, t), rel=1e-12)
        assert c == pytest.approx(cat_offdiag_norm(p, t), rel=1e-12)


def test_decoherence_curve_bad_flags(capsys):
    code, _, _ = run_cli(
        capsys, "decoherence-curve", "--n", "8", "--epsilon", "0.5", "--steps", "1"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys,
        "decoherence-curve",
        "--n", "8", "--epsilon", "0.5", "--gamma-t-max", "0",
    )
    assert code == 2


def test_decoherence_curve_rejects_infinite_endpoint(capsys):
    code, out, err = run_cli(
        capsys,
        "decoherence-curve",
        "--n", "100", "--epsilon", "0.1", "--gamma-t-max", "inf", "--steps", "4",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Warning" not in err


def test_decoherence_curve_ghz_limit_at_long_times(capsys):
    # at eps = pi/2 the log1p argument rounds to -1 past gamma_t ~ 18.4
    code, out, err = run_cli(
        capsys,
        "decoherence-curve",
        "--n", "10", "--epsilon", "1.5707963267948966", "--gamma-t-max", "20",
    )
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == 51


def test_distill_sim_refuses_n_above_the_size_cap(capsys, monkeypatch):
    # a small injected cap; the check runs before any O(N) allocation
    monkeypatch.setattr(distillation, "MAX_DISTRIBUTION_N", 10)
    code, out, err = run_cli(capsys, "distill-sim", "--n", "11", "--epsilon", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: N must be an integer in [1, 10], got 11")
    code, _, _ = run_cli(capsys, "distill-sim", "--n", "10", "--epsilon", "0.5")
    assert code == 0


def test_decoherence_curve_near_largest_double(capsys):
    # -2 gamma_t overflows to -inf on the way; no numpy warning reaches stderr
    n, eps = 100, 0.2
    code, out, err = run_cli(
        capsys,
        "decoherence-curve",
        "--n", str(n), "--epsilon", str(eps), "--gamma-t-max", "1.7e308", "--steps", "3",
    )
    assert code == 0
    assert err == ""
    last = [float(v) for v in out.splitlines()[-1].split(",")]
    assert last[0] == 1.7e308
    assert last[1] == 0.0
    assert last[2] == pytest.approx(math.cos(eps) ** n, rel=1e-12)


@pytest.mark.parametrize("n", [2**1023, int(sys.float_info.max)], ids=["2^1023", "max_double"])
@pytest.mark.parametrize("eps", [1e-3, 1.5, math.pi / 2])
def test_effective_size_at_largest_n(capsys, n, eps):
    # every field finite, or exit 2 naming the field that overflows (the
    # first in report order: at eps >= 1.5, N eps^2 exceeds the largest double)
    code, out, err = run_cli(capsys, "effective-size", "--n", str(n), "--epsilon", repr(eps))
    if code == 0:
        payload = json.loads(out)
        assert all(math.isfinite(v) for v in payload.values())
        assert err == ""
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_distill_upper_asymptotic overflows a double")
        assert "Traceback" not in err


def test_distill_sim_trials_cap(capsys):
    # refused before any sampling: 10**15 trials would run for decades
    cap = distillation.MAX_TRIALS
    for trials in (10**15, cap + 1):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "distill-sim", "--n", "10", "--epsilon", "0.5", "--trials", str(trials)
        )
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith(f"error: trials must be an integer in [1, {cap}], got {trials}")


@pytest.mark.parametrize(
    "command, flag, endpoint, steps, expected_code",
    [
        # ids: steps-exit code
        pytest.param(*DECAY_GRID, "1.2846e-320", 3, 0, id="3-0"),
        pytest.param(*DECAY_GRID, "1.2846e-320", 1001, 2, id="1001-2"),
        pytest.param(*LOSS_GRID, "4.4e-323", 7, 2, id="7-2"),
    ],
)
def test_curve_grid_whose_step_rounds_up(
    capsys, command, flag, endpoint, steps, expected_code
):
    # at a subnormal endpoint the step can round up so far that the point
    # before the last passes the endpoint (at 1001 steps, not at 3): an
    # unsorted grid, refused by either curve with its REFUSED row's line
    with np.errstate(over="ignore"):
        grid = np.linspace(0.0, float(endpoint), steps)
    assert bool(np.all(np.diff(grid) >= 0)) == (expected_code == 0)
    code, _, _ = run_cli(
        capsys, command, "--n", "10", "--epsilon", "0.3", flag, endpoint, "--steps", str(steps),
    )
    assert code == expected_code


def test_n_beyond_largest_double_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "effective-size", "--n", "1" + "0" * 400, "--epsilon", "0.1"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: N must be an integer in [1, 1.7976931348623157e+308], got a 1329-bit integer\n"
    )


@pytest.mark.parametrize("command", ["decoherence-curve", "loss-curve"])
def test_n_ref_beyond_largest_double_exit_2(capsys, command):
    # refused before the CSV header is written
    code, out, err = run_cli(
        capsys, command, "--n", "10", "--epsilon", "0.1", "--steps", "3",
        "--n-ref", "1" + "0" * 400,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: n_ref") and "[1, 1.7976931348623157e+308], got a 1329-bit" in err


def test_distill_sim_payload(capsys):
    args = [
        "distill-sim",
        "--n", "2", "--epsilon", str(PI_3), "--trials", "2000", "--seed", "7",
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical for identical flags and seed
    payload = json.loads(out1)
    assert set(payload.keys()) == {"exact", "mc"}
    np.testing.assert_allclose(payload["exact"]["q"], [0.4, 0.4, 0.2], atol=1e-14)
    assert payload["exact"]["source"] == "exact"
    assert payload["mc"]["source"] == "mc"
    assert payload["mc"]["trials"] == 2000
    assert payload["mc"]["seed"] == 7
    assert sum(payload["mc"]["q"]) == pytest.approx(1.0, abs=1e-12)


def test_distill_sim_half_pi(capsys):
    code, out, _ = run_cli(
        capsys,
        "distill-sim",
        "--n", "4", "--epsilon", str(math.pi / 2), "--trials", "300", "--seed", "0",
    )
    assert code == 0
    assert json.loads(out)["mc"]["q"][4] == 1.0


def test_loss_curve(capsys):
    code, out, _ = run_cli(
        capsys,
        "loss-curve",
        "--n", "8", "--epsilon", "0.5", "--lambda-max", "1", "--steps", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,ghz_suppression,cat_suppression"
    assert lines[1] == "0,1,1"


def test_validate_small_grid(capsys):
    import time

    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "validate", "--max-n", "2")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0
    lines = out.splitlines()
    assert lines[0] == "status,name,max_err,tol"
    assert all(line.startswith("PASS,") for line in lines[1:])
    assert len(lines) > 10


def test_validate_row_names_are_pinned(capsys):
    # a refactor of the suite must not drop or reorder a check silently
    code, out, _ = run_cli(capsys, "validate", "--max-n", "2")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "cat_state_normalization",
        "ghz_reduction_at_eps_half_pi",
        "decoherence_closed_form_dephasing",
        "decoherence_closed_form_depolarizing",
        "channel_equivalence",
        "ghz_decay_rate",
        "reduced_rho1_vs_partial_trace",
        "protocol_distribution",
        "protocol_mean_vs_expected_n",
        "protocol_ghz_fidelity",
        "measurement_completeness",
        "residual_factorization",
        "loss_subset_expectation",
        "n_distill_upper_exact",
    ]


# grid points per row at max_n = 2, 7 and 8; a speed-up must not come from
# dropping checks, and no row may pass on an empty grid
GRID_POINTS = {
    "cat_state_normalization": (5, 30, 35),
    "ghz_reduction_at_eps_half_pi": (1, 6, 7),
    "decoherence_closed_form_dephasing": (12, 72, 84),
    "decoherence_closed_form_depolarizing": (12, 72, 84),
    "channel_equivalence": (12, 72, 84),
    "ghz_decay_rate": (12, 42, 48),
    "reduced_rho1_vs_partial_trace": (5, 30, 35),
    "protocol_distribution": (4, 24, 28),
    "protocol_mean_vs_expected_n": (4, 24, 28),
    "protocol_ghz_fidelity": (12, 984, 2004),
    "measurement_completeness": (4, 24, 28),
    "residual_factorization": (4, 24, 28),
    "loss_subset_expectation": (12, 72, 84),
    "n_distill_upper_exact": (5, 30, 35),
}


@pytest.mark.parametrize("column, max_n", enumerate((2, 7, 8)))
def test_validate_grid_points_per_row_are_pinned(column, max_n):
    from collections import Counter

    from catsize.validation import _CHECKS, ROWS

    counts = Counter(row for check in _CHECKS for row, _ in check(max_n))
    assert counts == {row: points[column] for row, points in GRID_POINTS.items()}
    assert list(GRID_POINTS) == list(ROWS)
    assert all(min(points) > 0 for points in GRID_POINTS.values())


def test_validate_out_of_range(capsys):
    for max_n in ("20", "9", "1"):
        code, out, err = run_cli(capsys, "validate", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err == f"error: max_n must be an integer in [2, 8], got {max_n}\n"


def test_run_validation_rejects_non_integer_counts():
    from catsize.validation import run_validation

    for max_n in (2.5, True, "3"):
        with pytest.raises(ValueError, match=r"^max_n must be an integer in \[2, 8\], got "):
            run_validation(max_n)


def _nan_at_n2_gamma_005(params, gamma_t):
    if params.N == 2 and gamma_t == 0.05:
        return math.nan
    return cat_offdiag_norm(params, gamma_t)


def _inf_q0(params):
    q = list(outcome_distribution(params).q)
    return types.SimpleNamespace(q=[math.inf, *q[1:]])


def _scaled_expected_n(params):
    return expected_n(params) * (1 + 1e-6)


DECOHERENCE_ROWS = ["decoherence_closed_form_dephasing", "decoherence_closed_form_depolarizing"]


@pytest.mark.parametrize(
    "target, replacement, failing",
    [
        ("catsize.loss.cat_loss_suppression", lambda params, lam: math.nan,
         ["loss_subset_expectation"]),
        ("catsize.decoherence.cat_offdiag_norm", _nan_at_n2_gamma_005, DECOHERENCE_ROWS),
        ("catsize.decoherence.cat_offdiag_norm", lambda params, gamma_t: 0.0, DECOHERENCE_ROWS),
        ("catsize.validation.entropy_s1", lambda params: math.nan, ["n_distill_upper_exact"]),
        ("catsize.distillation.outcome_distribution", _inf_q0, ["protocol_distribution"]),
        # a control: a finite error above its tolerance
        ("catsize.validation.expected_n", _scaled_expected_n, ["protocol_mean_vs_expected_n"]),
    ],
    ids=["loss-nan", "offdiag-nan-at-one-point", "offdiag-zero", "entropy-nan", "q0-inf",
         "expected-n-scaled"],
)
def test_validate_fails_loudly_on_a_broken_closed_form(
    monkeypatch, capsys, target, replacement, failing
):
    # a closed form that returns nan, 0 or inf where validation reaches it
    # fails exactly its rows: every row is printed, each cell parses, the
    # exit code is 1 and stderr names each failing row
    monkeypatch.setattr(target, replacement)
    code, out, err = run_cli(capsys, "validate", "--max-n", "3")
    assert code == 1
    assert err == f"validation failed: {', '.join(failing)}\n"
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["status", "name", "max_err", "tol"]
    assert len(rows) == 15
    for status, name, max_err, tol in rows[1:]:
        assert status == ("FAIL" if name in failing else "PASS"), name
        float(max_err)
        assert math.isfinite(float(tol))
        if status == "PASS":
            assert math.isfinite(float(max_err))


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "effective-size", "--n", "10", "--epsilon", "0.3", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["N"] == 10


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run_cli(
        capsys, "effective-size", "--n", "10", "--epsilon", "0.3", "--output", str(missing)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {missing}: ")
    assert "Traceback" not in err
    assert not missing.parent.exists()


def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", "--max-n", "2", "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_distill_sim_mean_sanity(capsys):
    # empirical mean lands near the closed-form expectation
    code, out, _ = run_cli(
        capsys,
        "distill-sim",
        "--n", "8", "--epsilon", "0.5", "--trials", "20000", "--seed", "3",
    )
    assert code == 0
    q = np.array(json.loads(out)["mc"]["q"])
    mean = float(np.arange(9) @ q)
    p = CatParams(8, 0.5)
    exact = np.fromiter(outcome_distribution(p).q, float, 9)
    var = float((np.arange(9) ** 2) @ exact) - expected_n(p) ** 2
    assert abs(mean - expected_n(p)) < 4.0 * math.sqrt(var / 20000)


@pytest.mark.parametrize("steps", [2, 3, 7, 50, 1001, 100003])
@pytest.mark.parametrize(
    "endpoint",
    [5e-324, 1e-310, 1e-300, 0.1, 1 / 3, 1.0, 18.5, 400.0, 1e300, 1.7976931348623157e308],
)
def test_curve_grid_is_linspace(steps, endpoint):
    # the curve grid is built without numpy, bit for bit np.linspace; the
    # subnormal endpoints take the branch where the step underflows to 0
    grid = Linspace(endpoint, steps)
    # linspace scales the last point too before it sets it to endpoint, and
    # that product may overflow (endpoint near the largest double)
    with np.errstate(over="ignore"):
        expected = np.linspace(0.0, endpoint, steps).tolist()
    # the grid is computed as it is read, afresh on each pass
    assert len(grid) == steps
    assert list(grid) == expected
    assert list(grid) == expected
    assert all(type(v) is float for v in grid)
