"""The two benchmark workloads: CLI flag lists drawn from the seed.

Each workload is an endless sequence of rounds; a round is a list of
``catsize`` argument lists that the closed loop runs in order. A round
holds one call of every shape the workload mixes, so a run that stops
between rounds always has the same mix, and the median does not jump
between shapes of different cost. Every number is drawn from
``random.Random`` seeded with the workload name and the seed, so the same
seed gives the same calls; the CLI receives only the generated flags.

``smoke=True`` gives the same shapes at minimal size for the self-test.
Why each workload exists is stated in BENCHMARK.json.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

CURVE_STEPS = 1001
VALIDATE_MAX_N = 7  # about 4-5 s a call; 8 takes about 19 s
MC_STEPS = 6e7  # trials x N, so that distill-sim costs about what validate does


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _state(rng: random.Random, smoke: bool) -> tuple[str, str]:
    n = round(_log_uniform(rng, 1e3, 1e5 if smoke else 1e7))
    return str(n), repr(_log_uniform(rng, 1e-4, 1e-1))


def _query(rng: random.Random, smoke: bool) -> list[list[str]]:
    steps = str(11 if smoke else CURVE_STEPS)
    n1, eps1 = _state(rng, smoke)
    n2, eps2 = _state(rng, smoke)
    n3, eps3 = _state(rng, smoke)
    n4, eps4 = _state(rng, smoke)
    overlap = repr(math.sin(float(eps2)) ** 2)
    return [
        ["effective-size", "--n", n1, "--epsilon", eps1],
        ["effective-size", "--n", n2, "--epsilon-sq-overlap", overlap],
        ["decoherence-curve", "--n", n3, "--epsilon", eps3,
         "--gamma-t-max", repr(_log_uniform(rng, 0.1, 10.0)), "--steps", steps],
        ["loss-curve", "--n", n4, "--epsilon", eps4,
         "--lambda-max", repr(rng.uniform(0.05, 1.0)), "--steps", steps],
    ]


def _compute(rng: random.Random, smoke: bool) -> list[list[str]]:
    # two shapes of about the same cost, so the median does not sit on the
    # edge between two clusters: the exact pmf, its payload and the Monte
    # Carlo sampler at the headline N ~ 1e6 (N eps^2 ~ 1), and the dense
    # oracle suite
    n = round((1e3 if smoke else 1e6) * rng.uniform(0.99, 1.01))
    eps = math.sqrt(rng.uniform(0.9, 1.1) / n)
    trials = round((1e4 if smoke else MC_STEPS) / n)
    return [
        ["distill-sim", "--n", str(n), "--epsilon", repr(eps), "--trials", str(trials),
         "--seed", str(rng.getrandbits(64))],
        ["validate", "--max-n", "2" if smoke else str(VALIDATE_MAX_N)],
    ]


WORKLOADS = {
    "query": _query,
    "compute": _compute,
}


def rounds(workload: str, seed: int, smoke: bool = False) -> Iterator[list[list[str]]]:
    """Endless rounds of CLI argument lists for ``workload`` under ``seed``."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng, smoke)
