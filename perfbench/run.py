"""Benchmark of the catsize command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/``.
``--workload all`` runs every workload, one after another.

With ``--trace 0`` one closed-loop client runs the real ``catsize`` CLI,
one child process at a time, for about S seconds: each invocation is timed
from process start to exit by a small launcher process, its CPU time and
max-RSS are read with ``os.wait4``, and its output is checked against
mpmath references (see checks.py). Each round of calls starts with a
set-up probe, a fresh interpreter running ``import catsize``. With
``--trace 1`` the same inputs run in this process with per-layer spans
(see tracing.py).

Prints the metrics by name with their units, writes a record with the
machine facts, the drawn parameters and every sample to ``perfbench/out/``,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``. Exits 1 if any output check failed, 2 on a usage error or
when there are no sources to measure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import checks  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MiB",
}
SETUP_REPS = 3
TAIL_BEYOND = 10
RUN_BUDGET_S = 170.0  # a run must exit within 180 s; a child still running then is killed
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_ARGV = [sys.executable, "-c", "import catsize"]
SETUP = None  # marks the set-up probe in a round


class Launcher:
    """The launcher process (launcher.py); runs one child at a time."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self._stdout = OUT / f"child-{os.getpid()}.stdout"
        self._stderr = OUT / f"child-{os.getpid()}.stderr"
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> dict:
        """Run one child; the reply carries its stdout and stderr text."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        req = {"argv": argv, "stdout": str(self._stdout), "stderr": str(self._stderr),
               "timeout": timeout}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process ended unexpectedly")
        reply = json.loads(line)
        reply["stdout"] = self._stdout.read_text(encoding="utf-8")
        reply["stderr"] = self._stderr.read_text(encoding="utf-8", errors="replace")
        return reply

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()
        for f in (self._stdout, self._stderr):
            f.unlink(missing_ok=True)

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def machine_facts() -> dict:
    model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "loadavg_start": os.getloadavg(),
    }


def windowed(seconds: float, deadline: float):
    """Runner of whole rounds for about ``seconds``: another round starts
    only if at least half of it is expected to fit in the window, so runs
    end within half a round of ``seconds`` on average (the first round
    always runs)."""

    def measure(rounds, call) -> None:
        start = time.perf_counter()
        for done, calls in enumerate(rounds, 1):
            for argv in calls:
                call(argv)
            now = time.perf_counter()
            per_round = (now - start) / done
            if now - start + per_round / 2 > seconds or now + per_round > deadline:
                break

    return measure


def _setup_wall(launcher: Launcher) -> float:
    r = launcher.run(IMPORT_ARGV)
    if r["returncode"] != 0:
        raise RuntimeError(f"import catsize failed: {r['stderr'][-500:]}")
    return r["wall_s"]


def measure_cli(launcher: Launcher, rounds, measure, check=checks.check):
    """Closed loop over the rounds; one sample per CLI invocation.

    Each round starts with a set-up probe, a fresh interpreter running
    ``import catsize``, so set-up is sampled across the whole window like
    the calls; short runs are topped up to SETUP_REPS probes at the end.
    Returns the samples and the set-up wall times.
    """
    samples, setup_walls = [], []
    _setup_wall(launcher)  # warms the page and bytecode caches; not recorded

    def call(argv):
        if argv is SETUP:
            setup_walls.append(_setup_wall(launcher))
            return
        r = launcher.run([sys.executable, "-m", "catsize", *argv])
        if r["timed_out"]:
            failure = "timeout"
        elif r["returncode"] != 0:
            failure = f"exit {r['returncode']}: {r['stderr'][-300:]}"
        else:
            failure = check(argv, r["stdout"])
        del r["stdout"], r["stderr"]
        samples.append({"argv": argv, **r, "failure": failure})

    measure(([SETUP, *calls] for calls in rounds), call)
    while len(setup_walls) < SETUP_REPS:
        setup_walls.append(_setup_wall(launcher))
    return samples, setup_walls


def tail_latency(walls: list[float]) -> dict:
    """Highest percentile with TAIL_BEYOND samples above it: the
    (n - TAIL_BEYOND)-th of the n sorted samples, nearest rank. The maximum
    when that sample would not lie above the median (n <= 2 * TAIL_BEYOND)."""
    ordered = sorted(walls)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if 2 * rank > n:
        return {"value": ordered[rank - 1], "percentile": round(100.0 * rank / n, 2),
                "samples": n, "beyond": TAIL_BEYOND}
    return {"value": ordered[-1], "percentile": None, "samples": n, "beyond": 0,
            "note": f"maximum: no percentile above the median has {TAIL_BEYOND} samples "
                    "beyond it"}


def e2e_metrics(samples: list[dict], setup_walls: list[float]) -> tuple[dict, dict]:
    ok = [s for s in samples if s["failure"] is None]
    walls = [s["wall_s"] for s in ok] or [math.nan]
    tail = tail_latency(walls)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail["value"],
        "throughput_per_s": len(ok) / sum(s["wall_s"] for s in samples),
        "cpu_per_op_s": statistics.fmean(s["cpu_s"] for s in samples),
        "peak_rss_mb": max(s["maxrss_kb"] for s in samples) / 1024.0,
    }
    details = {
        "setup_s": {"samples": len(setup_walls), "statistic": "median"},
        "latency_p50_s": {"samples": len(ok), "statistic": "median"},
        "latency_tail_s": tail,
        "throughput_per_s": {"samples": len(samples),
                             "statistic": "successful invocations / summed wall time"},
        "cpu_per_op_s": {"samples": len(samples), "statistic": "mean user+system"},
        "peak_rss_mb": {"samples": len(samples), "statistic": "max"},
        "fail_ratio": {"value": (len(samples) - len(ok)) / len(samples),
                       "failed": len(samples) - len(ok), "attempted": len(samples)},
    }
    return metrics, details


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        check=checks.check) -> dict:
    """One benchmark run; returns the full record."""
    t0 = time.perf_counter()
    deadline = t0 + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_facts()}
    rounds = workloads.rounds(workload, seed, smoke)
    measure = windowed(seconds, deadline)
    with Launcher(deadline) as launcher:
        if trace:
            import tracing

            sys.path.insert(0, str(SRC))
            metrics = tracing.startup_metrics(launcher)
            traced, layer_self, samples, spans = tracing.run_traced(rounds, measure, check)
            metrics.update(traced)
            units = tracing.PER_LAYER_UNITS
            spans_path = OUT / f"spans-{workload}-seed{seed}.json"
            spans_path.write_text(json.dumps(spans), encoding="utf-8")
            record.update(self_time_per_layer_s=layer_self, spans_file=str(spans_path))
        else:
            samples, setup_walls = measure_cli(launcher, rounds, measure, check)
            metrics, details = e2e_metrics(samples, setup_walls)
            units = E2E_UNITS
            record.update(details=details, setup_walls_s=setup_walls)
    record["machine"]["loadavg_end"] = os.getloadavg()
    failed = sum(s["failure"] is not None for s in samples)
    record.update(
        samples=samples,
        elapsed_s=time.perf_counter() - t0,
        result={
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    )
    return record


def report(record: dict, path: Path) -> None:
    """Human-readable lines, then the result as the last line of stdout."""
    result = record["result"]
    m = record["machine"]
    print(f"catsize benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {int(record['trace'])}, {result['attempted']} invocations")
    print(f"machine: nproc {m['nproc']}, {m['cpu_model']}, Python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, BLAS env {m['blas_env'] or 'unset'}, "
          f"loadavg {m['loadavg_start'][0]:.2f} -> {m['loadavg_end'][0]:.2f}")
    details = record.get("details", {})
    for name, metric in result["metrics"].items():
        d = details.get(name, {})
        note = d.get("note") or (f"p{d['percentile']:g}" if d.get("percentile") else "")
        count = f"n={d['samples']}" if "samples" in d else ""
        extra = ", ".join(x for x in (count, note) if x)
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}"
              + (f"  ({extra})" if extra else ""))
    if "fail_ratio" in details:
        f = details["fail_ratio"]
        print(f"  {'fail_ratio':40s} {f['value']:.6g} ratio  ({f['failed']}/{f['attempted']})")
    for name, secs in record.get("self_time_per_layer_s", {}).items():
        print(f"  self time {name:30s} {secs:.6g} s per invocation")
    for s in record["samples"]:
        if s["failure"]:
            print(f"  FAILED catsize {' '.join(s['argv'])}: {s['failure']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "catsize" / "__init__.py").is_file():
        print(f"error: no catsize sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        record = run(name, args.seed, args.seconds, bool(args.trace))
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        report(record, path)
        correct = correct and record["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
