import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from catsize import distillation
from catsize.cli import MAX_CURVE_STEPS, _curve_grid, main
from catsize.core import CatParams, expected_n
from catsize.decoherence import cat_offdiag_norm, ghz_offdiag_norm
from catsize.distillation import outcome_distribution
from catsize.report import build_effective_size_report

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
    with pytest.raises(ValueError):
        build_effective_size_report(CatParams(1, 0.2))


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
    # both flags at once is a usage error
    code, _, err = run_cli(
        capsys,
        "effective-size",
        "--n", "50", "--epsilon", "0.1", "--epsilon-sq-overlap", "0.25",
    )
    assert code == 2
    assert err.strip()
    # neither flag is a usage error too
    code, _, err = run_cli(capsys, "effective-size", "--n", "50")
    assert code == 2
    assert err.strip()
    code, _, err = run_cli(
        capsys, "effective-size", "--n", "50", "--epsilon-sq-overlap", "1.5"
    )
    assert code == 2


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
    assert err.startswith("error: N = 11 exceeds 10")
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


def test_curve_steps_cap(capsys):
    # refused before the grid is built: 10**12 steps would need ~360 TB
    for command in ("decoherence-curve", "loss-curve"):
        for steps in (10**12, MAX_CURVE_STEPS + 1):
            start = time.perf_counter()
            code, out, err = run_cli(
                capsys, command, "--n", "100", "--epsilon", "0.2", "--steps", str(steps)
            )
            assert time.perf_counter() - start < 0.5
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "--steps" in err


@pytest.mark.parametrize("steps, expected_code", [(3, 0), (1001, 2)])
def test_curve_grid_whose_step_rounds_up(capsys, steps, expected_code):
    # at a subnormal endpoint the step can round up so far that the point
    # before the last passes the endpoint (at 1001 steps, not at 3): an
    # unsorted grid, refused as such, as the check of the whole grid did
    with np.errstate(over="ignore"):
        grid = np.linspace(0.0, 1.2846e-320, steps)
    assert bool(np.all(np.diff(grid) >= 0)) == (expected_code == 0)
    code, out, err = run_cli(
        capsys, "decoherence-curve", "--n", "10", "--epsilon", "0.3",
        "--gamma-t-max", "1.2846e-320", "--steps", str(steps),
    )
    assert code == expected_code
    if code:
        assert (out, err) == ("", "error: gamma_t grid must be sorted ascending\n")


def test_n_beyond_largest_double_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "effective-size", "--n", "1" + "0" * 400, "--epsilon", "0.1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "largest double" in err


def test_import_loads_only_the_library():
    import catsize

    probe = (
        "import sys, catsize\n"
        "loaded = [m for m in ('catsize.cli', 'catsize.validation', 'catsize.oracle')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import catsize.cli, catsize.report, catsize.validation\n"
        "assert catsize.EffectiveSizeReport is catsize.report.EffectiveSizeReport\n"
        "assert catsize.build_effective_size_report is catsize.report.build_effective_size_report\n"
        "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not scipy, scipy\n"
    )
    src = os.path.dirname(os.path.dirname(catsize.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


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


def test_distill_sim_bad_flags(capsys):
    # simulate_protocol's own checks refuse the flag: exit 2, no output
    for flag, value, message in [
        ("--trials", "0", "trials must be a positive integer"),
        ("--trials", "-5", "trials must be a positive integer"),
        ("--seed", "-1", "seed must be an unsigned 64-bit integer"),
        ("--seed", str(2**64), "seed must be an unsigned 64-bit integer"),
    ]:
        code, out, err = run_cli(
            capsys, "distill-sim", "--n", "2", "--epsilon", "0.5", flag, value
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err


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
    code, _, _ = run_cli(
        capsys, "loss-curve", "--n", "8", "--epsilon", "0.5", "--lambda-max", "1.2"
    )
    assert code == 2


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


def test_validate_out_of_range(capsys):
    for max_n in ("20", "9", "1"):
        code, out, err = run_cli(capsys, "validate", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "size cap of the dense oracle" in err


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
    exact = outcome_distribution(p).q
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
    args = argparse.Namespace(steps=steps, n_ref=None)
    n_ref, grid = _curve_grid(args, endpoint, 3.4)
    assert n_ref == 3
    # linspace scales the last point too before it sets it to endpoint, and
    # that product may overflow (endpoint near the largest double)
    with np.errstate(over="ignore"):
        expected = np.linspace(0.0, endpoint, steps).tolist()
    # the grid is computed as it is read: by iteration and by index
    assert len(grid) == steps
    assert list(grid) == expected
    assert [grid[i] for i in range(steps)] == expected
    assert all(type(v) is float for v in grid)
