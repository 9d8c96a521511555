"""The chunked output path against the dense output it replaced.

Every command writes its output as a stream of text chunks.  These tests
keep the dense forms that were written before as references -- the
``distill-sim`` payload as two lists over 0..N, each value in its
``fmt_float`` form, and each curve as a whole ``np.linspace`` grid evaluated point by point by
the public closed forms -- and check that ``main()`` writes the same bytes,
and that writing holds no more than a chunk at a time.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from catsize import cli, decoherence, loss
from catsize.cli import main
from catsize.core import CatParams, Linspace
from catsize.decoherence import cat_offdiag_norm, decay_curve, ghz_offdiag_norm
from catsize.distillation import OutcomeDistribution, outcome_distribution, simulate_protocol
from catsize.loss import cat_loss_suppression, ghz_loss_suppression, loss_curve
from catsize.report import build_effective_size_report
from catsize.serialize import dumps_json, fmt_float, json_chunks
from domain import EPS, HALF_PI, NS, small

MiB = 2**20


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def dense_distill_text(n, eps, trials, seed):
    # the payload as it was written before: two lists over 0..N, each value
    # formatted on its own, in the payload's key order
    p = CatParams(n, eps)
    dist = outcome_distribution(p)
    exact_q = [0.0] * (n + 1)
    exact_q[dist.lo : dist.lo + len(dist.log_q_window)] = map(math.exp, dist.log_q_window)
    mc = simulate_protocol(p, trials, seed)
    mc_q = [0.0] * (n + 1)
    for k, t in zip(mc.outcomes, mc.tallies):
        mc_q[k] = t / mc.trials

    def block(q, source, trials, seed):
        return (
            f'{{"N": {n}, "epsilon": {fmt_float(p.epsilon)}, '
            f'"q": [{", ".join(map(fmt_float, q))}], '
            f'"source": "{source}", "trials": {trials}, "seed": {seed}}}'
        )

    exact, mc = block(exact_q, "exact", "null", "null"), block(mc_q, "mc", trials, seed)
    return f'{{"exact": {exact}, "mc": {mc}}}\n'


def dense_curve_text(header, endpoint, steps, ghz, cat):
    # the whole grid, each row evaluated and formatted on its own
    with np.errstate(over="ignore"):
        grid = np.linspace(0.0, endpoint, steps).tolist()
    rows = [",".join(map(fmt_float, (x, ghz(x), cat(x)))) for x in grid]
    return "\n".join([header, *rows]) + "\n"


def dense_decay_text(n, eps, endpoint, steps):
    p = CatParams(n, eps)
    n_ref = max(1, round(n * math.sin(eps) ** 2))
    return dense_curve_text(
        "gamma_t,ghz_norm,cat_norm", endpoint, steps,
        lambda t: ghz_offdiag_norm(n_ref, t), lambda t: cat_offdiag_norm(p, t),
    )


def dense_loss_text(n, eps, endpoint, steps):
    p = CatParams(n, eps)
    n_ref = max(1, round(n * p.one_minus_c))
    return dense_curve_text(
        "lambda,ghz_suppression,cat_suppression", endpoint, steps,
        lambda lam: ghz_loss_suppression(n_ref, lam),
        lambda lam: cat_loss_suppression(p, lam),
    )


def test_readme_effective_size_commands(capsys):
    for flag, value in (("--epsilon", "0.001"), ("--epsilon-sq-overlap", "1e-6")):
        out = run(capsys, ["effective-size", "--n", "1000000", flag, value])
        eps = 0.001 if flag == "--epsilon" else math.asin(math.sqrt(1e-6))
        payload = build_effective_size_report(CatParams(10**6, eps)).to_payload()
        fields = [f'"{k}": ' + (str(v) if type(v) is int else fmt_float(v))
                  for k, v in payload.items()]
        assert out == "{" + ", ".join(fields) + "}\n"


def test_readme_curve_commands(capsys):
    out = run(capsys, ["decoherence-curve", "--n", "100", "--epsilon", "0.2",
                       "--gamma-t-max", "2", "--steps", "101"])
    assert out == dense_decay_text(100, 0.2, 2.0, 101)
    out = run(capsys, ["loss-curve", "--n", "100", "--epsilon", "0.2",
                       "--lambda-max", "1", "--steps", "101"])
    assert out == dense_loss_text(100, 0.2, 1.0, 101)


def test_readme_distill_sim_command(capsys):
    out = run(capsys, ["distill-sim", "--n", "8", "--epsilon", "0.5",
                       "--trials", "100000", "--seed", "7"])
    assert out == dense_distill_text(8, 0.5, 100000, 7)


def test_readme_validate_command(capsys, monkeypatch):
    # the rows main() writes, against the rows of the results it was given
    seen = []

    def recording(max_n):
        seen.extend(run_validation(max_n))
        return seen

    run_validation = cli.run_validation
    monkeypatch.setattr(cli, "run_validation", recording)
    out = run(capsys, ["validate", "--max-n", "8"])
    rows = [",".join(["PASS" if r.passed else "FAIL", r.name, fmt_float(r.max_err),
                      fmt_float(r.tol)]) for r in seen]
    assert out == "\n".join(["status,name,max_err,tol", *rows]) + "\n"


@pytest.mark.parametrize("n", [*filter(small, NS), 8, 5000])
@pytest.mark.parametrize("eps", EPS)
def test_distill_sim_bytes(capsys, n, eps):
    out = run(capsys, ["distill-sim", "--n", str(n), "--epsilon", repr(eps),
                       "--trials", "1000", "--seed", "3"])
    assert out == dense_distill_text(n, eps, 1000, 3)


@pytest.mark.parametrize("endpoint", ["5e-324", "1e-310"])
def test_curve_with_underflowing_step(capsys, endpoint):
    # the step endpoint / (steps - 1) underflows to 0 at 5e-324
    out = run(capsys, ["decoherence-curve", "--n", "100", "--epsilon", "0.2",
                       "--gamma-t-max", endpoint, "--steps", "1000"])
    assert out == dense_decay_text(100, 0.2, float(endpoint), 1000)
    out = run(capsys, ["loss-curve", "--n", "100", "--epsilon", "0.2",
                       "--lambda-max", endpoint, "--steps", "1000"])
    assert out == dense_loss_text(100, 0.2, float(endpoint), 1000)


def test_output_file_holds_the_same_bytes(capsys, tmp_path):
    for argv in (
        ["distill-sim", "--n", "5000", "--epsilon", "0.01", "--trials", "100"],
        ["loss-curve", "--n", "100", "--epsilon", "0.2", "--steps", "9000"],
    ):
        path = tmp_path / "out.txt"
        assert main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert path.read_text(encoding="utf-8") == run(capsys, argv)


def csv_columns(curve):
    # the columns of a curve, parsed from its CSV text (%.17g round-trips)
    lines = "".join(curve.to_csv()).splitlines()[1:]
    return tuple(zip(*(map(float, line.split(",")) for line in lines)))


# eps and endpoints on both sides of each curve's branch: the log1p form
# near 0, the sum-of-terms form past it, and lam = 1
@pytest.mark.parametrize("eps", [0.2, 1.2, HALF_PI])
def test_decay_columns_match_the_point_functions(eps):
    p = CatParams(30, eps)
    grid = np.linspace(0.0, 25.0, 9001).tolist()
    curve = decay_curve(p, 7, Linspace(25.0, 9001))
    times, ghz, cat = csv_columns(curve)
    assert list(curve.grid) == list(times) == grid
    assert ghz == tuple(ghz_offdiag_norm(7, t) for t in grid)
    assert cat == tuple(cat_offdiag_norm(p, t) for t in grid)


@pytest.mark.parametrize("eps", [0.2, 1.3, HALF_PI])
@pytest.mark.parametrize("grid", [Linspace(1.0, 9001), Linspace(0.37, 4)])
def test_loss_columns_match_the_point_functions(eps, grid):
    p = CatParams(30, eps)
    lams, ghz, cat = csv_columns(loss_curve(p, 7, grid))
    grid = np.linspace(0.0, grid.endpoint, len(grid)).tolist()
    assert list(lams) == grid
    assert ghz == tuple(ghz_loss_suppression(7, x) for x in grid)
    assert cat == tuple(cat_loss_suppression(p, x) for x in grid)


@pytest.mark.parametrize("window", [[0.0, math.nan], [math.inf], [-math.inf, 0.0, math.nan]])
def test_non_finite_window_is_refused_before_any_output(capsys, monkeypatch, tmp_path, window):
    def broken(params):
        return OutcomeDistribution(params, 3, tuple(window))

    monkeypatch.setattr(cli, "outcome_distribution", broken)
    argv = ["distill-sim", "--n", "100", "--epsilon", "0.5", "--trials", "10"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot serialize non-finite value")
    path = tmp_path / "payload.json"
    assert main([*argv, "--output", str(path)]) == 2
    assert not path.exists()


@pytest.mark.parametrize("command", ["decoherence-curve", "loss-curve"])
def test_curve_failing_mid_stream(capsys, monkeypatch, tmp_path, command):
    # a value that cannot be written, past the first block of rows: stdout
    # keeps the text written before it, and no --output file holds a part
    module, point = {
        "decoherence-curve": (decoherence, "_cat_norm"),
        "loss-curve": (loss, "_cat_loss"),
    }[command]
    monkeypatch.setattr(module, point, lambda params: lambda x: math.inf if x > 0.9 else 0.5)
    argv = [command, "--n", "10", "--epsilon", "0.2", "--steps", "10001"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == "error: cannot serialize non-finite value inf\n"
    lines = out.splitlines()
    assert lines[0].count(",") == 2 and 4096 <= len(lines) - 1 < 9001
    assert all(line.endswith(",0.5") for line in lines[1:])
    path = tmp_path / "curve.csv"
    path.write_text("an older file")
    assert main([*argv, "--output", str(path)]) == 2
    assert not path.exists()
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    assert main([*argv, "--output", str(link)]) == 2
    assert link.is_symlink()


class NullSink:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def peak_while_writing(chunks):
    sink = NullSink()
    tracemalloc.start()
    try:
        for chunk in chunks():
            sink.write(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.size


def test_distill_payload_is_written_in_bounded_memory():
    # the dense payload at N = 1e6 took about 30 MiB of traced allocation
    p = CatParams(10**6, 1e-3)
    dist, mc = outcome_distribution(p), simulate_protocol(p, 60, 1)

    def chunks():
        return json_chunks({"exact": dist.to_payload(), "mc": mc.to_payload()})

    peak, size = peak_while_writing(chunks)
    assert size > 6 * 10**6
    assert peak < 1 * MiB


def test_curves_are_written_in_bounded_memory():
    # 200001 rows are about 12 MB of text; one block is held at a time
    p = CatParams(100, 0.2)
    for curve in (decay_curve(p, 4, Linspace(2.0, 200001)),
                  loss_curve(p, 4, Linspace(1.0, 200001))):
        peak, size = peak_while_writing(curve.to_csv)
        assert size > 10**7
        assert peak < 2 * MiB


def test_json_chunks_join_to_the_text():
    # chunks stay small: no chunk holds more than one batch of values
    p = CatParams(10**5, 1e-2)
    payload = {"exact": outcome_distribution(p).to_payload()}
    chunks = list(json_chunks(payload))
    assert "".join(chunks) == dumps_json(payload)
    assert max(map(len, chunks)) < 4096 * 25
    assert json.loads(dumps_json(payload))["exact"]["q"] == list(outcome_distribution(p).q)
