"""The command-line contract over the whole input domain, as a property test.

Every run of ``effective-size``, both curves, ``distill-sim`` and
``validate`` either exits 0 with finite, parseable output and nothing on
stderr, or exits 2 with nothing on stdout and one ``error:`` line on
stderr.  N goes up to 10^400 and the angle over every float, nan and both
infinities included.  The trials and steps drawn stay near 1000, plus
values just past each cap, distill-sim's N stays near 10^4 below its cap
and validate's --max-n at 2 or 3, so the test takes a few seconds; the
caps themselves refuse the larger values before any work.

Kept apart from test_cli.py so that the rest of the CLI tests run without
hypothesis, the one test dependency that is optional.
"""

import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from catsize import cli, distillation
from domain import EPS, HALF_PI

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _mostly(valid, anything):
    # three draws in four from the valid domain, so that most runs get
    # through to the output, and the rest from anywhere (st.one_of would
    # draw its branches about evenly, duplicates or not)
    return st.sampled_from([valid, valid, valid, anything]).flatmap(lambda s: s)


# every float, nan and the infinities included, the eps table and both flags' ends
FLOATS = st.floats() | st.sampled_from(
    [*EPS, -0.0, math.nextafter(HALF_PI, 4.0), 1.0, math.nextafter(1.0, 2.0)]
)
# counts up to the largest double are valid
MAX_COUNT = int(sys.float_info.max)
COUNTS = _mostly(
    st.integers(1, MAX_COUNT) | st.sampled_from([2**53 + 1, 2**1023, MAX_COUNT]),
    st.integers(-10, 10**400) | st.just(MAX_COUNT + 1),
)


def _angle_flag(draw):
    flag, domain = draw(
        st.sampled_from([("--epsilon", HALF_PI), ("--epsilon-sq-overlap", 1.0)])
    )
    # the = form, so that argparse reads "-inf" or "-1e-05" as a value
    return f"{flag}={draw(_mostly(st.floats(0.0, domain), FLOATS))!r}"


@st.composite
def effective_size_argv(draw):
    return ["effective-size", f"--n={draw(COUNTS)}", _angle_flag(draw)]


@st.composite
def curve_argv(draw):
    command, endpoint_flag = draw(
        st.sampled_from([("decoherence-curve", "--gamma-t-max"), ("loss-curve", "--lambda-max")])
    )
    past_cap = st.just(cli.MAX_CURVE_STEPS + 1)
    steps = draw(_mostly(st.integers(2, 1000), st.integers(-2, 1) | past_cap))
    endpoint = draw(_mostly(st.floats(0.0, 1.0, exclude_min=True), FLOATS))
    argv = [
        command, f"--n={draw(COUNTS)}", _angle_flag(draw),
        f"{endpoint_flag}={endpoint!r}", f"--steps={steps}",
    ]
    n_ref = draw(st.none() | COUNTS)
    return argv if n_ref is None else [*argv, f"--n-ref={n_ref}"]


@st.composite
def distill_sim_argv(draw):
    cap = distillation.MAX_DISTRIBUTION_N
    n = draw(_mostly(st.integers(1, 10_000), st.integers(-10, 0) | st.integers(cap + 1, 10**400)))
    past_cap = st.just(distillation.MAX_TRIALS + 1)
    trials = draw(_mostly(st.integers(1, 1000), st.integers(-2, 0) | past_cap))
    any_seed = st.integers(-(2**70), 2**70) | st.sampled_from([2**64, -1])
    seed = draw(_mostly(st.integers(0, 2**64 - 1), any_seed))
    return ["distill-sim", f"--n={n}", _angle_flag(draw), f"--trials={trials}", f"--seed={seed}"]


@st.composite
def validate_argv(draw):
    max_n = draw(_mostly(st.integers(2, 3), st.sampled_from([-1, 0, 1, 9, 10**400])))
    return ["validate", f"--max-n={max_n}"]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _finite_numbers(obj):
    # every number in a parsed JSON value
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def _check_output(argv, out):
    if argv[0] in ("decoherence-curve", "loss-curve"):
        header, *rows = out.splitlines()
        assert header.count(",") == 2
        steps = int(next(a for a in argv if a.startswith("--steps=")).split("=")[1])
        assert len(rows) == steps
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    elif argv[0] == "validate":
        header, *rows = out.splitlines()
        assert header == "status,name,max_err,tol" and rows
        assert all(math.isfinite(float(row.split(",")[2])) for row in rows)
    else:
        assert _finite_numbers(json.loads(out, parse_constant=_reject_constant))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        # a warning would print to stderr outside the test: fail on it
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argvs", [effective_size_argv(), curve_argv(), distill_sim_argv(), validate_argv()],
    ids=["effective-size", "curves", "distill-sim", "validate"],
)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exits_0_with_finite_output_or_2_with_one_error_line(argvs, data):
    argv = data.draw(argvs)
    code, out, err = _run(argv)
    if code == 0:
        assert err == ""
        _check_output(argv, out)
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
