"""Traced run: per-layer spans and counts for one workload.

The workload's CLI calls run in this process through ``catsize.cli.main``
with stdout captured, in pairs: once plain and once with wrappers installed
(the order alternates between pairs). The wrappers replace catsize's public
functions where the calling module binds them -- ``catsize.cli.
outcome_distribution``, ``OutcomeDistribution.to_payload``, the oracle as
``catsize.validation`` sees it -- so calls made inside a layer stay
unwrapped and only coarse boundaries get spans. Each span records name,
start, end, parent span and invocation id; spans stay in memory until the
run ends.

Every ``*_s`` and count metric is per traced invocation (total over the
traced calls divided by their number); rates are totals over totals.
Start-up layers are measured in fresh interpreters through the launcher.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

MiB = 2.0**20

PER_LAYER_UNITS = {
    "process.interpreter_s": "s",
    "import.catsize_s": "s",
    "import.scipy_s": "s",
    "import.modules": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "core.params_s": "s",
    "decoherence.decay_curve_s": "s",
    "loss.loss_curve_s": "s",
    "decoherence.to_csv_s": "s",
    "loss.to_csv_s": "s",
    "curve.points": "count",
    "distillation.outcome_distribution_s": "s",
    "distillation.q_entries": "count",
    "distillation.to_payload_s": "s",
    "serialize.dumps_json_s": "s",
    "serialize.bytes_out": "bytes",
    "serialize.mb_per_s": "MiB/s",
    "distillation.simulate_protocol_s": "s",
    "distillation.mc_steps": "count",
    "distillation.mc_steps_per_s": "1/s",
    "distillation.peak_alloc_mb": "MiB",
    "validation.run_validation_s": "s",
    "validation.self_s": "s",
    "validation.checks": "count",
    "validation.checks_failed": "count",
    "oracle.apply_product_channel_s": "s",
    "oracle.apply_product_channel_calls": "count",
    "oracle.dense_trace_norm_s": "s",
    "oracle.dense_trace_norm_calls": "count",
    "oracle.enumerate_protocol_s": "s",
    "oracle.enumerate_protocol_calls": "count",
    "oracle.enumerate_loss_s": "s",
    "oracle.enumerate_loss_calls": "count",
    "oracle.state_build_s": "s",
    "oracle.kron_calls": "count",
    "oracle.svd_calls": "count",
    "trace.overhead_s": "s",
}

# metric <- span name, for metrics that are the inclusive time of one span
_SPAN_TIMES = {
    "cli.main_s": "cli.main",
    "core.params_s": "core.params",
    "decoherence.decay_curve_s": "decoherence.decay_curve",
    "loss.loss_curve_s": "loss.loss_curve",
    "decoherence.to_csv_s": "decoherence.to_csv",
    "loss.to_csv_s": "loss.to_csv",
    "distillation.outcome_distribution_s": "distillation.outcome_distribution",
    "distillation.to_payload_s": "distillation.to_payload",
    "serialize.dumps_json_s": "serialize.dumps_json",
    "distillation.simulate_protocol_s": "distillation.simulate_protocol",
    "validation.run_validation_s": "validation.run_validation",
    "oracle.apply_product_channel_s": "oracle.apply_product_channel",
    "oracle.dense_trace_norm_s": "oracle.dense_trace_norm",
    "oracle.enumerate_protocol_s": "oracle.enumerate_protocol",
    "oracle.enumerate_loss_s": "oracle.enumerate_loss",
    "oracle.state_build_s": "oracle.state_build",
}
_SPAN_CALLS = {
    "oracle.apply_product_channel_calls": "oracle.apply_product_channel",
    "oracle.dense_trace_norm_calls": "oracle.dense_trace_norm",
    "oracle.enumerate_protocol_calls": "oracle.enumerate_protocol",
    "oracle.enumerate_loss_calls": "oracle.enumerate_loss",
}
_SELF_TIMES = {
    "cli.self_s": "cli.main",
    "validation.self_s": "validation.run_validation",
}
_COUNTS = (
    "curve.points",
    "distillation.q_entries",
    "distillation.mc_steps",
    "serialize.bytes_out",
    "validation.checks",
    "validation.checks_failed",
    "oracle.kron_calls",
    "oracle.svd_calls",
)

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "m = len(sys.modules)\n"
    "import catsize\n"
    "print(time.perf_counter() - t, len(sys.modules) - m)\n"
)
START_REPS = 3


class _Namespace:
    """Stand-in for a module: given attributes, everything else forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Installs span wrappers on catsize and keeps spans and counts in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.counts: Counter = Counter()
        self.peak_alloc = 0
        self.invocation: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, alloc=False, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent, self.invocation])
            self._stack.append(idx)
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[idx][1:3] = [start, end]
            if count is not None:
                count(self.counts, result, *args)
            return result

        return traced

    def counted(self, key, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def _swap(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, owner, attr, name, **kw) -> None:
        self._swap(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def install(self) -> None:
        import numpy as np

        from catsize import cli, decoherence, distillation, loss, oracle, validation

        def points(c, result, params, n_ref, grid):
            c["curve.points"] += len(grid)

        def q_entries(c, result, params):
            c["distillation.q_entries"] += len(result.q)

        def mc_steps(c, result, params, trials, seed):
            c["distillation.mc_steps"] += params.N * trials  # computed from inputs

        def bytes_out(c, result, obj):
            c["serialize.bytes_out"] += len(result.encode())

        def checks(c, result, max_n):
            c["validation.checks"] += len(result)
            c["validation.checks_failed"] += sum(not r.passed for r in result)

        self._patch(cli, "main", "cli.main")
        self._patch(cli, "CatParams", "core.params")
        self._patch(cli, "decay_curve", "decoherence.decay_curve", count=points)
        self._patch(cli, "loss_curve", "loss.loss_curve", count=points)
        self._patch(decoherence.DecayCurve, "to_csv", "decoherence.to_csv")
        self._patch(loss.LossCurve, "to_csv", "loss.to_csv")
        self._patch(cli, "outcome_distribution", "distillation.outcome_distribution",
                    alloc=True, count=q_entries)
        self._patch(cli, "simulate_protocol", "distillation.simulate_protocol",
                    alloc=True, count=mc_steps)
        self._patch(distillation.OutcomeDistribution, "to_payload", "distillation.to_payload")
        self._patch(distillation.McResult, "to_payload", "distillation.to_payload")
        self._patch(cli, "dumps_json", "serialize.dumps_json", count=bytes_out)
        self._patch(cli, "run_validation", "validation.run_validation", count=checks)
        kernels = {
            name: self.wrap(f"oracle.{name}", getattr(oracle, name))
            for name in ("apply_product_channel", "dense_trace_norm",
                         "enumerate_protocol", "enumerate_loss")
        }
        for name in ("build_cat_state", "kron_power", "kron_all"):
            kernels[name] = self.wrap("oracle.state_build", getattr(oracle, name))
        self._swap(validation, "oracle", _Namespace(oracle, **kernels))
        linalg = _Namespace(np.linalg, svd=self.counted("oracle.svd_calls", np.linalg.svd))
        self._swap(oracle, "np", _Namespace(
            np, kron=self.counted("oracle.kron_calls", np.kron), linalg=linalg))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Inclusive time, self time and call count per span name; self time per layer."""
        incl, self_t, calls = defaultdict(float), defaultdict(float), Counter()
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        layer = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            self_t[name] += end - start - child[i]
            calls[name] += 1
            layer[name.split(".")[0]] += end - start - child[i]
        return incl, self_t, calls, layer


def _scipy_import_s(importtime_log: str) -> float:
    """Cumulative seconds of the outermost ``scipy*`` entries of -X importtime."""
    entries = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy) along the pre-order path
    for depth, name, cumulative_us in reversed(entries):  # the log is post-order
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative_us
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def startup_metrics(launcher) -> dict:
    """Interpreter start, ``import catsize`` time, scipy share and module count."""
    py = sys.executable
    interp = [launcher.run([py, "-c", "pass"])["wall_s"] for _ in range(START_REPS)]
    imports, modules = [], []
    for _ in range(START_REPS):
        secs, count = launcher.run([py, "-c", IMPORT_PROBE])["stdout"].split()
        imports.append(float(secs))
        modules.append(int(count))
    log = launcher.run([py, "-X", "importtime", "-c", "import catsize"])["stderr"]
    return {
        "process.interpreter_s": statistics.median(interp),
        "import.catsize_s": statistics.median(imports),
        "import.scipy_s": _scipy_import_s(log),
        "import.modules": statistics.median(modules),
    }


def run_traced(rounds, measure_window, check):
    """Run the rounds in process, plain and traced in pairs, within the window.

    Returns (metrics, per-layer self times, invocation records, spans).
    """
    from catsize import cli

    tracer = Tracer()
    plain, traced, records = [], [], []

    def invoke(argv, on):
        if on:
            tracer.invocation = len(traced)
            tracer.install()
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed invocation, not the end of the run
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if on:
            tracer.uninstall()
        failure = f"exit {rc}" if rc != 0 else check(argv, buf.getvalue())
        (traced if on else plain).append(wall)
        records.append({"argv": argv, "traced": on, "wall_s": wall, "failure": failure})

    def call(argv):
        order = (False, True) if len(records) % 4 == 0 else (True, False)
        for on in order:
            invoke(argv, on)

    measure_window(rounds, call)
    incl, self_t, calls, layer = tracer.totals()
    n = len(traced)
    metrics = {k: incl[v] / n for k, v in _SPAN_TIMES.items()}
    metrics.update({k: calls[v] / n for k, v in _SPAN_CALLS.items()})
    metrics.update({k: self_t[v] / n for k, v in _SELF_TIMES.items()})
    metrics.update({k: tracer.counts[k] / n for k in _COUNTS})
    sim_s = incl["distillation.simulate_protocol"]
    dump_s = incl["serialize.dumps_json"]
    metrics["distillation.mc_steps_per_s"] = (
        tracer.counts["distillation.mc_steps"] / sim_s if sim_s else 0.0)
    metrics["serialize.mb_per_s"] = (
        tracer.counts["serialize.bytes_out"] / MiB / dump_s if dump_s else 0.0)
    metrics["distillation.peak_alloc_mb"] = tracer.peak_alloc / MiB
    # per pair of the same call, so the mix of shapes in a workload cancels
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, traced))
    layer_self = {k: v / n for k, v in sorted(layer.items())}
    spans = [dict(zip(("name", "start", "end", "parent", "invocation"), s))
             for s in tracer.spans]
    return metrics, layer_self, records, spans
