"""Output checks for every benchmark invocation.

``check(argv, stdout)`` returns ``None`` for a correct output and a short
reason otherwise. References are the paper's closed forms evaluated in
30-digit mpmath from the same double inputs the program used, never the
small-eps asymptotes (``n ~ N eps^2 / 2`` and friends), which are off by
tens of percent at the operating points measured here.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
from mpmath import mp

mp.dps = 30

REL_TOL = 1e-12
# exp(x) with |x| up to ~745 amplifies the rounding of x by |x|
CURVE_REL_TOL = 1e-11
# below this a double has lost relative precision (subnormal range)
ABS_FLOOR = 1e-300
SUM_TOL = 1e-12
MEAN_REL_TOL = 1e-10
Q_REL_TOL = 1e-9
CHI2_MIN_P = 1e-6
CHI2_MIN_EXPECTED = 5.0


def _flags(args: list[str]) -> dict[str, str]:
    return dict(zip(args[::2], args[1::2]))


def _close(got: float, ref, rel: float) -> bool:
    return abs(mp.mpf(got) - ref) <= rel * abs(ref) + ABS_FLOOR


def _mismatch(what: str, got: float, ref) -> str:
    return f"{what}: got {got!r}, reference {mpmath.nstr(ref, 17)}"


def _eps_from(flags: dict[str, str], got: float) -> str | None:
    if "--epsilon" in flags:
        if got != float(flags["--epsilon"]):
            return f"epsilon echoed as {got!r}, flag {flags['--epsilon']}"
        return None
    ref = mp.asin(mp.sqrt(mp.mpf(float(flags["--epsilon-sq-overlap"]))))
    return None if _close(got, ref, 1e-14) else _mismatch("epsilon", got, ref)


def _entropy_s1_bits(n, c, s):
    # eigenvalues of the one-qubit reduced state from its determinant
    # s^2 (1 - c^(2N-2)) / (2 + 2 c^N)^2; the smaller one in cancellation-free form
    det = s**2 * -mp.expm1((2 * n - 2) * mp.log(c)) / (2 + 2 * c**n) ** 2
    lam = 2 * det / (1 + mp.sqrt(1 - 4 * det))
    if lam == 0:
        return mp.mpf(0)
    return -(lam * mp.log(lam) + (1 - lam) * mp.log1p(-lam)) / mp.log(2)


def effective_size_refs(n: int, eps: float) -> dict:
    e = mp.mpf(eps)
    c, s = mp.cos(e), mp.sin(e)
    omc = 2 * mp.sin(e / 2) ** 2
    return {
        "n_decoherence": n * s**2,
        "n_distill_mean": omc * n / (1 + c**n),
        "n_distill_upper_exact": n * _entropy_s1_bits(n, c, s),
        "n_distill_upper_asymptotic": -n * e**2 * mp.log(e, 2) / 2,
        "n_loss": n * omc,
        "reference_N_eps_sq": n * e**2,
    }


def _check_effective_size(flags: dict[str, str], out: str) -> str | None:
    payload = json.loads(out)
    n = int(flags["--n"])
    if payload.get("N") != n:
        return f"N echoed as {payload.get('N')!r}, flag {n}"
    bad = _eps_from(flags, payload["epsilon"])
    if bad:
        return bad
    refs = effective_size_refs(n, payload["epsilon"])
    if set(payload) != set(refs) | {"N", "epsilon"}:
        return f"unexpected report keys {sorted(payload)}"
    for key, ref in refs.items():
        if not _close(payload[key], ref, REL_TOL):
            return _mismatch(key, payload[key], ref)
    return None


def _rows(out: str, header: list[str], steps: int) -> list[list[float]] | str:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != header:
        return f"header {rows[0] if rows else None!r}, expected {header}"
    if len(rows) != steps + 1:
        return f"{len(rows) - 1} data rows, expected {steps}"
    return [[float(v) for v in row] for row in rows[1:]]


def _check_curve_rows(rows, x_max: float, end_refs) -> str | None:
    if rows[0] != [0.0, 1.0, 1.0]:
        return f"first row {rows[0]}, expected [0, 1, 1]"
    last = rows[-1]
    if last[0] != x_max:
        return f"last grid point {last[0]!r}, expected {x_max!r}"
    for name, got, ref in zip(("ghz", "cat"), last[1:], end_refs(last[0])):
        if not _close(got, ref, CURVE_REL_TOL):
            return _mismatch(f"last-row {name}", got, ref)
    return None


def _check_decoherence_curve(flags: dict[str, str], out: str) -> str | None:
    n, eps = int(flags["--n"]), float(flags["--epsilon"])
    rows = _rows(out, ["gamma_t", "ghz_norm", "cat_norm"], int(flags["--steps"]))
    if isinstance(rows, str):
        return rows
    # the CLI's default reference size, rounded from the double it computes
    n_ref = max(1, round(n * math.sin(eps) ** 2))
    s2 = mp.sin(mp.mpf(eps)) ** 2

    def refs(t):
        t = mp.mpf(t)
        return mp.exp(-n_ref * t), mp.exp(n * mp.log1p(s2 * mp.expm1(-2 * t)) / 2)

    return _check_curve_rows(rows, float(flags["--gamma-t-max"]), refs)


def _check_loss_curve(flags: dict[str, str], out: str) -> str | None:
    n, eps = int(flags["--n"]), float(flags["--epsilon"])
    rows = _rows(out, ["lambda", "ghz_suppression", "cat_suppression"],
                 int(flags["--steps"]))
    if isinstance(rows, str):
        return rows
    n_ref = max(1, round(n * min(2.0 * math.sin(eps / 2.0) ** 2, 1.0)))
    omc = 2 * mp.sin(mp.mpf(eps) / 2) ** 2

    def refs(lam):
        lam = mp.mpf(lam)
        return (1 - lam) ** n_ref, (1 - lam * omc) ** n

    return _check_curve_rows(rows, float(flags["--lambda-max"]), refs)


def outcome_refs(n: int, eps: float, tail: float = 1e-15) -> list:
    """q_0, q_1, ... of the filtering protocol in 30 digits, up to where the
    remaining mass is below ``tail`` (or n = N)."""
    e = mp.mpf(eps)
    c = mp.cos(e)
    omc = 2 * mp.sin(e / 2) ** 2
    norm = 1 + c**n
    q = [2 * c**n / norm]
    while len(q) <= n and 1 - mp.fsum(q) > tail:
        k = len(q)
        q.append(mp.binomial(n, k) * omc**k * c ** (n - k) / norm)
    return q


def chi_square_p(counts: list[int], ref_q: list, trials: int) -> float:
    """p-value of the counts against the reference, pooling sparse bins.

    Bins with an expected count below 5 are pooled with everything past
    the last dense bin.
    """
    obs, exp = [], []
    for k, qk in enumerate(ref_q):
        if trials * qk >= CHI2_MIN_EXPECTED:
            obs.append(counts[k])
            exp.append(trials * qk)
    if not exp:
        return 1.0
    rest_exp = trials - mp.fsum(exp)
    rest_obs = trials - sum(obs)
    if rest_exp >= CHI2_MIN_EXPECTED:
        obs.append(rest_obs)
        exp.append(rest_exp)
    else:
        obs[-1] += rest_obs
        exp[-1] += rest_exp
    if len(obs) < 2:
        return 1.0
    stat = mp.fsum((o - e) ** 2 / e for o, e in zip(obs, exp))
    return float(mp.gammainc((len(obs) - 1) / mp.mpf(2), stat / 2, mp.inf, regularized=True))


def _check_distill_sim(flags: dict[str, str], out: str) -> str | None:
    payload = json.loads(out)
    n, eps = int(flags["--n"]), float(flags["--epsilon"])
    trials, seed = int(flags["--trials"]), int(flags["--seed"])
    exact, mc = payload["exact"], payload["mc"]
    for part in (exact, mc):
        if (part["N"], part["epsilon"], len(part["q"])) != (n, eps, n + 1):
            return f"{part['source']} payload has N, epsilon, len(q) = " \
                   f"{part['N']}, {part['epsilon']!r}, {len(part['q'])}"
    q = exact["q"]
    total = math.fsum(q)
    if abs(total - 1.0) > SUM_TOL:
        return f"sum(q) - 1 = {total - 1.0:.3e}"
    e = mp.mpf(eps)
    mean_ref = 2 * mp.sin(e / 2) ** 2 * n / (1 + mp.cos(e) ** n)
    mean = math.fsum(k * qk for k, qk in enumerate(q))
    if not _close(mean, mean_ref, MEAN_REL_TOL):
        return _mismatch("mean of q", mean, mean_ref)
    ref_q = outcome_refs(n, eps)
    for k, qk in enumerate(ref_q):
        if not _close(q[k], qk, Q_REL_TOL):
            return _mismatch(f"q_{k}", q[k], qk)

    if (mc["trials"], mc["seed"]) != (trials, seed):
        return f"mc payload echoes trials, seed = {mc['trials']}, {mc['seed']}"
    scaled = [f * trials for f in mc["q"]]
    counts = [round(x) for x in scaled]
    if any(abs(x - k) > 1e-6 * max(1.0, x) for x, k in zip(scaled, counts)):
        return "mc frequencies are not counts / trials"
    if sum(counts) != trials:
        return f"mc counts sum to {sum(counts)}, expected {trials}"
    p = chi_square_p(counts, ref_q, trials)
    if p < CHI2_MIN_P:
        return f"mc frequencies fail chi-square against exact q (p = {p:.3e})"
    return None


def _check_validate(flags: dict[str, str], out: str) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["status", "name", "max_err", "tol"] or len(rows) < 2:
        return "validate output has no header or no rows"
    for status, name, max_err, tol in rows[1:]:
        if status != "PASS" or not float(max_err) <= float(tol):
            return f"validate row {name}: {status}, max_err {max_err} > tol {tol}"
    return None


_CHECKS = {
    "effective-size": _check_effective_size,
    "decoherence-curve": _check_decoherence_curve,
    "loss-curve": _check_loss_curve,
    "distill-sim": _check_distill_sim,
    "validate": _check_validate,
}


def check(argv: list[str], stdout: str) -> str | None:
    """Reason the output of ``catsize <argv>`` is wrong, or None if correct."""
    try:
        return _CHECKS[argv[0]](_flags(argv[1:]), stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
