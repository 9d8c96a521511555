"""Smoke self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at minimal size, plain and traced, and checks that

* every metric BENCHMARK.json names is emitted with its unit, and that
  perfbench/catalog.json describes exactly those metrics and workloads;
* the seed code passes every output check;
* each output check rejects a deliberately corrupted output, and a run
  whose outputs are corrupted counts every invocation as failed.

Exits 0 when all hold, 1 otherwise. Takes about a minute.
"""

from __future__ import annotations

import json
import re
import sys

import checks
import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CATALOG = json.loads((run.HERE / "catalog.json").read_text(encoding="utf-8"))


def corrupt(argv: list[str], out: str) -> str:
    """A wrong output: a FAIL row for validate, else the leading digit of
    the last number changed (the last curve value, an echoed flag, ...)."""
    if argv[0] == "validate":
        return out.replace("PASS", "FAIL", 1)
    last = list(re.finditer(r"\d", out))
    pos = None
    for m in reversed(last):  # leading digit of the last number
        if m.start() == 0 or not re.match(r"[\d.]", out[m.start() - 1]):
            pos = m.start()
            break
    return out[:pos] + str((int(out[pos]) + 1) % 10) + out[pos + 1:]


def expect(cond: bool, what: str, errors: list[str]) -> None:
    if not cond:
        errors.append(what)
        print(f"FAIL {what}")


def main() -> int:
    errors: list[str] = []
    spec_units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expect(spec_units == run.E2E_UNITS, "BENCHMARK.json end_to_end matches run.E2E_UNITS",
           errors)
    expect(layer_units == tracing.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer matches tracing.PER_LAYER_UNITS", errors)
    expect(set(CATALOG["per_layer"]) == set(layer_units)
           and set(CATALOG["end_to_end"]) == set(spec_units)
           and set(CATALOG["workloads"]) == {w["name"] for w in SPEC["workloads"]},
           "catalog.json covers exactly the metrics and workloads of BENCHMARK.json", errors)
    expect({w["name"] for w in SPEC["workloads"]} == set(run.workloads.WORKLOADS),
           "BENCHMARK.json workloads are the benchmark's workloads", errors)

    outputs: list[tuple[list[str], str]] = []

    def capturing(argv, out):
        outputs.append((argv, out))
        return checks.check(argv, out)

    for name in run.workloads.WORKLOADS:
        for trace, units in ((False, spec_units), (True, layer_units)):
            result = run.run(name, 1, 0.1, trace, smoke=True, check=capturing)["result"]
            label = f"{name} trace {int(trace)}"
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == units, f"{label}: every metric emitted with its unit", errors)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: seed code passes every output check", errors)
            print(f"ok {label}: {result['attempted']} invocations")

    for argv, out in {(tuple(a), o) for a, o in outputs}:
        expect(checks.check(list(argv), corrupt(list(argv), out)) is not None,
               f"check rejects a corrupted output of catsize {' '.join(argv)}", errors)

    result = run.run("query", 2, 0.1, False, smoke=True,
                     check=lambda argv, out: checks.check(argv, corrupt(argv, out)))["result"]
    expect(not result["correct"] and result["failed"] == result["attempted"] >= 1,
           "corrupted outputs are counted as failures", errors)

    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
