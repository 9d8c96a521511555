"""Command-line frontend emitting JSON/CSV for all analyses.

Subcommands mirror the three effective-size methods plus validation:
``effective-size``, ``decoherence-curve``, ``distill-sim``, ``loss-curve``,
``validate``.  All payloads are deterministic functions of the flags (and
seed); no plotting, the CLI emits data for external tools.

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from itertools import chain

from .core import CatParams, Linspace
from .decoherence import decay_curve, effective_size_decoherence
from .loss import effective_size_loss, loss_curve
from .report import build_effective_size_report
from .serialize import csv_chunks, dumps_json, json_chunks

__all__ = ["main"]

# The numpy-backed commands, imported on first use so that the closed-form
# commands never load numpy.  They are module attributes like the eager
# imports above, and the handlers look them up on the module (_CLI), so a
# caller may replace any of them.
_LAZY = {
    "outcome_distribution": ".distillation",
    "simulate_protocol": ".distillation",
    "run_validation": ".validation",
}
_CLI = sys.modules[__name__]

# Largest --steps of decoherence-curve and loss-curve.  The rows are
# computed as they are written, 4096 at a time, so memory does not grow
# with the steps (max RSS 18 MiB at 1e6 and at 2^24 steps); what does is
# the output, about 60 bytes a row (72 at most), and the run time, about
# 2 us a row, two thirds of it the %.17g formatting.  The cap is the
# largest power of two at which the output stays near 1 GiB, the budget of
# distillation.MAX_DISTRIBUTION_N: 2^24 steps write 1.0 GB in about 30 s
# to /dev/null (2-core Xeon, Python 3.11).
MAX_CURVE_STEPS = 2**24


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __package__), name)
    globals()[name] = value
    return value


def _resolve_epsilon(args: argparse.Namespace) -> float:
    # argparse lets exactly one of --epsilon and --epsilon-sq-overlap through
    v = args.epsilon_sq_overlap
    if v is None:
        return args.epsilon
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"--epsilon-sq-overlap must lie in [0, 1], got {v!r}")
    return math.asin(math.sqrt(v))


def _emit(chunks, output: str | None) -> None:
    # writes each text chunk as it is produced, to the sys.stdout in force
    # at the call (a redirection included) or to the --output file.  If
    # producing a chunk fails, stdout keeps the chunks written before it,
    # and a regular --output file is removed, so it never holds part of an
    # output (a symlink such as /dev/stdout is left alone)
    if output is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            try:
                fh.writelines(chunks)
            except BaseException:
                if os.path.isfile(output) and not os.path.islink(output):
                    os.remove(output)
                raise
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _cmd_effective_size(args: argparse.Namespace) -> int:
    params = CatParams(args.n, _resolve_epsilon(args))
    report = build_effective_size_report(params)
    _emit([dumps_json(report.to_payload()), "\n"], args.output)
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    # decoherence-curve and loss-curve.  args.curve is the module's factory
    # as it stood when main() built the parser, so a replacement is seen; it
    # and Linspace check the endpoint.  n_ref defaults to the rounded
    # matched size, at least 1.
    params = CatParams(args.n, _resolve_epsilon(args))
    if not (2 <= args.steps <= MAX_CURVE_STEPS):
        raise ValueError(f"--steps must lie in [2, {MAX_CURVE_STEPS}], got {args.steps}")
    n_ref = args.n_ref if args.n_ref is not None else max(1, round(args.matched_size(params)))
    curve = args.curve(params, n_ref, Linspace(args.endpoint, args.steps))
    _emit(curve.to_csv(), args.output)
    return 0


def _cmd_distill_sim(args: argparse.Namespace) -> int:
    params = CatParams(args.n, _resolve_epsilon(args))
    exact = _CLI.outcome_distribution(params)
    empirical = _CLI.simulate_protocol(params, args.trials, args.seed)
    payload = {"exact": exact.to_payload(), "mc": empirical.to_payload()}
    _emit(chain(json_chunks(payload), ["\n"]), args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    # max_err is formatted here, so a nan or inf one (its row fails) is printed, not refused
    results = _CLI.run_validation(args.max_n)
    rows = [("PASS" if r.passed else "FAIL", r.name, "%.17g" % r.max_err, r.tol) for r in results]
    _emit(csv_chunks("status,name,max_err,tol", "%s,%s,%s,%.17g\n", rows), args.output)
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"validation failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catsize",
        description="Effective GHZ size of cat-like superpositions |phi1>^N + |phi2>^N",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="output path (default stdout)")
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--n", type=int, required=True, help="number of qubits N")
    angle = state.add_mutually_exclusive_group(required=True)
    angle.add_argument("--epsilon", type=float, help="branch angle in radians, [0, pi/2]")
    angle.add_argument(
        "--epsilon-sq-overlap",
        type=float,
        help="alternative input 1 - |<phi1|phi2>|^2; converted via eps = asin(sqrt(.))",
    )
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument(
        "--steps", type=int, default=50, help=f"grid points, in [2, {MAX_CURVE_STEPS}]"
    )

    def command(name, func, summary, parents=(state, output)):
        p = sub.add_parser(name, parents=list(parents), help=summary)
        p.set_defaults(func=func)
        return p

    def curve_command(name, factory, matched_size, summary, flag, flag_help, n_ref_help):
        p = command(name, _cmd_curve, summary, (state, curve, output))
        p.set_defaults(curve=factory, matched_size=matched_size)
        p.add_argument(flag, dest="endpoint", type=float, default=1.0, help=flag_help)
        n_ref_help = f"GHZ reference size (default: rounded {n_ref_help}, at least 1)"
        p.add_argument("--n-ref", type=int, help=n_ref_help)

    command(
        "effective-size", _cmd_effective_size, "all effective-size measures as one JSON report"
    )

    curve_command(
        "decoherence-curve", decay_curve, effective_size_decoherence,
        "GHZ vs cat off-diagonal decay curves as CSV",
        "--gamma-t-max", "grid endpoint, finite and > 0", "N sin^2 eps",
    )

    p = command(
        "distill-sim", _cmd_distill_sim, "exact and Monte Carlo distillation outcome distributions"
    )
    p.add_argument(
        "--trials", type=int, default=10000, help="Monte Carlo trials, >= 1, capped by run time"
    )
    p.add_argument("--seed", type=int, default=0, help="unsigned 64-bit RNG seed")

    curve_command(
        "loss-curve", loss_curve, effective_size_loss,
        "GHZ vs cat loss-suppression curves as CSV",
        "--lambda-max", "grid endpoint, in (0, 1]", "N (1 - cos eps)",
    )

    p = command("validate", _cmd_validate, "run the oracle-equivalence suite", [output])
    p.add_argument(
        "--max-n", type=int, default=4, help="largest qubit count to check, in [2, 8]"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # through the process entry, which sets the BLAS thread default
    from .__main__ import main as _entry

    sys.exit(_entry())
