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
import sys

from .core import CatParams
from .decoherence import decay_curve, effective_size_decoherence
from .loss import effective_size_loss, loss_curve
from .report import EffectiveSizeReport, build_effective_size_report
from .serialize import csv_text, dumps_json

__all__ = ["EffectiveSizeReport", "build_effective_size_report", "main"]

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


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __package__), name)
    globals()[name] = value
    return value


class _UsageError(Exception):
    pass


def _resolve_epsilon(args: argparse.Namespace) -> float:
    has_eps = args.epsilon is not None
    has_overlap = getattr(args, "epsilon_sq_overlap", None) is not None
    if has_eps and has_overlap:
        raise _UsageError("provide either --epsilon or --epsilon-sq-overlap, not both")
    if not has_eps and not has_overlap:
        raise _UsageError("one of --epsilon or --epsilon-sq-overlap is required")
    if has_eps:
        return args.epsilon
    v = args.epsilon_sq_overlap
    if not (0.0 <= v <= 1.0):
        raise _UsageError(f"--epsilon-sq-overlap must lie in [0, 1], got {v!r}")
    return math.asin(math.sqrt(v))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _curve_grid(
    args: argparse.Namespace, endpoint: float, matched_size: float
) -> tuple[int, list[float]]:
    # GHZ reference size (default: the rounded matched size, at least 1) and
    # the grid 0..endpoint, bit for bit np.linspace(0.0, endpoint, steps):
    # i * step, or (i / div) * endpoint where step underflows to 0, and the
    # last point exactly endpoint
    if args.steps < 2:
        raise _UsageError(f"--steps must be >= 2, got {args.steps}")
    n_ref = args.n_ref if args.n_ref is not None else max(1, round(matched_size))
    div = args.steps - 1
    step = endpoint / div
    if step == 0.0:
        grid = [i / div * endpoint for i in range(div)]
    else:
        grid = [i * step for i in range(div)]
    grid.append(endpoint)
    return n_ref, grid


def _cmd_effective_size(args: argparse.Namespace) -> int:
    params = CatParams(args.n, _resolve_epsilon(args))
    report = build_effective_size_report(params)
    _emit(dumps_json(report.to_payload()) + "\n", args.output)
    return 0


def _cmd_decoherence_curve(args: argparse.Namespace) -> int:
    params = CatParams(args.n, _resolve_epsilon(args))
    if not (0.0 < args.gamma_t_max < math.inf):
        raise _UsageError(f"--gamma-t-max must be finite and > 0, got {args.gamma_t_max!r}")
    n_ref, grid = _curve_grid(args, args.gamma_t_max, effective_size_decoherence(params))
    _emit(decay_curve(params, n_ref, grid).to_csv(), args.output)
    return 0


def _cmd_distill_sim(args: argparse.Namespace) -> int:
    params = CatParams(args.n, _resolve_epsilon(args))
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    if not (0 <= args.seed < 2**64):
        raise _UsageError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
    exact = _CLI.outcome_distribution(params)
    empirical = _CLI.simulate_protocol(params, args.trials, args.seed)
    payload = {"exact": exact.to_payload(), "mc": empirical.to_payload()}
    _emit(dumps_json(payload) + "\n", args.output)
    return 0


def _cmd_loss_curve(args: argparse.Namespace) -> int:
    params = CatParams(args.n, _resolve_epsilon(args))
    if not (0.0 < args.lambda_max <= 1.0):
        raise _UsageError(f"--lambda-max must lie in (0, 1], got {args.lambda_max!r}")
    n_ref, grid = _curve_grid(args, args.lambda_max, effective_size_loss(params))
    _emit(loss_curve(params, n_ref, grid).to_csv(), args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if not (2 <= args.max_n <= 8):
        raise _UsageError(
            f"--max-n must lie in [2, 8] (size cap of the dense oracle), got {args.max_n}"
        )
    results = _CLI.run_validation(args.max_n)
    rows = [("PASS" if r.passed else "FAIL", r.name, r.max_err, r.tol) for r in results]
    _emit(csv_text("status,name,max_err,tol", rows), args.output)
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"validation failed: {failures[0].name}", file=sys.stderr)
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
    state.add_argument(
        "--epsilon", type=float, default=None, help="branch angle in radians, [0, pi/2]"
    )
    state.add_argument(
        "--epsilon-sq-overlap",
        type=float,
        default=None,
        help="alternative input 1 - |<phi1|phi2>|^2; converted via eps = asin(sqrt(.))",
    )

    def command(name, func, summary, parents=(state, output)):
        p = sub.add_parser(name, parents=list(parents), help=summary)
        p.set_defaults(func=func)
        return p

    command(
        "effective-size", _cmd_effective_size, "all effective-size measures as one JSON report"
    )

    p = command(
        "decoherence-curve", _cmd_decoherence_curve, "GHZ vs cat off-diagonal decay curves as CSV"
    )
    p.add_argument(
        "--gamma-t-max", type=float, default=1.0, help="grid endpoint, finite and > 0"
    )
    p.add_argument("--steps", type=int, default=50, help="grid points, >= 2")
    p.add_argument(
        "--n-ref",
        type=int,
        default=None,
        help="GHZ reference size (default: rounded N sin^2 eps, at least 1)",
    )

    p = command(
        "distill-sim", _cmd_distill_sim, "exact and Monte Carlo distillation outcome distributions"
    )
    p.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials, >= 1")
    p.add_argument("--seed", type=int, default=0, help="unsigned 64-bit RNG seed")

    p = command("loss-curve", _cmd_loss_curve, "GHZ vs cat loss-suppression curves as CSV")
    p.add_argument(
        "--lambda-max", type=float, default=1.0, help="grid endpoint, in (0, 1]"
    )
    p.add_argument("--steps", type=int, default=50, help="grid points, >= 2")
    p.add_argument(
        "--n-ref",
        type=int,
        default=None,
        help="GHZ reference size (default: rounded N (1 - cos eps), at least 1)",
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
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # through the process entry, which sets the BLAS thread default
    from .__main__ import main as _entry

    sys.exit(_entry())
