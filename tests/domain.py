"""The edge points of the parameter domain, the one table of them: every test
that sweeps the edges of eps or N reads its points here, and so does the CI
console loop (``python tests/domain.py eps``, or ``n``).  A test that cannot
take a point leaves it out through a named predicate.

``REFUSED`` is the one table of the inputs outside the domain that catsize
itself refuses: each row is an argv and the one line catsize prints for it
after ``error: ``, with exit 2 and nothing on stdout.  test_cli.py runs every
row in-process and the CI console loop through the console script
(``python tests/domain.py refused``).  A change that adds a refusal adds a row.
"""

import math
import sys

from catsize import distillation
from catsize.core import CatParams

HALF_PI = math.pi / 2

# (eps, why it is an edge), ascending
EPS_POINTS = (
    (0.0, "the product state: c = 1 and 1 - c = 0"),
    (5e-324, "the smallest positive double, subnormal: 1 - c = 0"),
    (1e-300, "a normal eps whose square underflows: 1 - c = 0"),
    (3e-162, "eps^2 = 1e-323, but 1 - c = 2 sin^2(eps/2) rounds to 0 (up to 3.14e-162)"),
    (1e-161, "1 - c = 5e-323, ten subnormal ulps"),
    (1e-155, "-ln c = 5e-311 is subnormal: the sampler's t / a can overflow"),
    (2.1e-154, "k^2 = 1 - c = 2.2e-308 is subnormal (normal from eps = 2.11e-154)"),
    (1e-150, "k^2 = 5e-301 is normal; the sampler's t / a is finite but above 2^27"),
    (1e-8, "cos eps rounds to 1: 1 - c = 5e-17 only through the half-angle form"),
    (1e-3, "the headline angle: N eps^2 = 1 at N = 1e6"),
    (math.pi / 4, "mid-range: c = 0.707 and 1 - c = 0.293"),
    (math.pi / 3, "c = 1/2 to an ulp: the pmf's variance N c (1 - c), so its window, is widest"),
    (HALF_PI - 1e-8, "c = 1e-8, next to the GHZ end"),
    (math.nextafter(HALF_PI, 0.0), "the double below pi/2: c = 2.8e-16"),
    (HALF_PI, "the double nearest pi/2, the ideal GHZ state: c = 6.1e-17, not 0"),
)
# (N, why it is an edge), ascending
N_POINTS = (
    (1, "one qubit: the report and reduced_rho1 need N >= 2"),
    (2, "the fewest qubits the report takes"),
    (10**3, "the largest N at which a scalar scan of all N + 1 outcomes takes milliseconds"),
    (10**6, "the headline N"),
    (10**7, "the large-N operating point"),
    (distillation.MAX_DISTRIBUTION_N, "the largest N of the outcome distribution and the sampler"),
    (2**53 + 1, "the smallest int that float() rounds: the closed forms see 2^53"),
    (int(1e300), "astronomically large, yet N times any rate of the table is finite"),
)
EPS = [eps for eps, _ in EPS_POINTS]
NS = [n for n, _ in N_POINTS]

_N = "N must be an integer in [1, 1.7976931348623157e+308], got "
_N_REF = "n_ref must be an integer in [1, 1.7976931348623157e+308], got "
_EPSILON = "epsilon must lie in [0.0, 1.5707963267948966], got "
_OVERLAP = "--epsilon-sq-overlap must lie in [0.0, 1.0], got "
_STEPS = "--steps must be an integer in [2, 16777216], got "
_ENDPOINT = "grid endpoint must lie in [5e-324, 1.7976931348623157e+308], got "
_LAMBDA_MAX = "lambda grid endpoint must lie in [0.0, 1.0], got "
_TRIALS = "trials must be an integer in [1, 8388608], got "
_SEED = "seed must be an integer in [0, 18446744073709551615], got "
_MAX_N = "max_n must be an integer in [2, 8], got "
_OVERFLOW = "n_distill_upper_asymptotic overflows a double at N = "
_MAX_INT = int(sys.float_info.max)
# (argv, the error line without "error: "), grouped by command
REFUSED = (
    ("effective-size --n 0 --epsilon 0.1", _N + "0"),
    (f"effective-size --n {10**400} --epsilon 0.1", _N + "a 1329-bit integer"),
    ("effective-size --n 1 --epsilon 0.1",
     "N must be an integer in [2, 1.7976931348623157e+308], got 1"),
    ("effective-size --n 10 --epsilon 1.8", _EPSILON + "1.8"),
    ("effective-size --n 10 --epsilon 2", _EPSILON + "2.0"),
    ("effective-size --n 10 --epsilon nan", _EPSILON + "nan"),
    ("effective-size --n 10 --epsilon inf", _EPSILON + "inf"),
    ("effective-size --n 10 --epsilon=-inf", _EPSILON + "-inf"),
    ("effective-size --n 10 --epsilon-sq-overlap 1.5", _OVERLAP + "1.5"),
    ("effective-size --n 10 --epsilon-sq-overlap nan", _OVERLAP + "nan"),
    ("effective-size --n 10 --epsilon-sq-overlap=-inf", _OVERLAP + "-inf"),
    ("effective-size --n 10 --epsilon-sq-overlap=-5e-324", _OVERLAP + "-5e-324"),
    ("effective-size --n 10 --epsilon-sq-overlap=1.0000000000000002",
     _OVERLAP + "1.0000000000000002"),
    # N eps^2 past the largest double: the first field in report order that overflows
    (f"effective-size --n {2**1023} --epsilon 1.5",
     _OVERFLOW + "8.9884656743115795e+307, epsilon = 1.5"),
    (f"effective-size --n {2**1023} --epsilon 1.5707963267948966",
     _OVERFLOW + "8.9884656743115795e+307, epsilon = 1.5707963267948966"),
    (f"effective-size --n {_MAX_INT} --epsilon 1.5",
     _OVERFLOW + "1.7976931348623157e+308, epsilon = 1.5"),
    (f"effective-size --n {_MAX_INT} --epsilon 1.5707963267948966",
     _OVERFLOW + "1.7976931348623157e+308, epsilon = 1.5707963267948966"),
    ("decoherence-curve --n 8 --epsilon 0.5 --steps 1", _STEPS + "1"),
    ("decoherence-curve --n 100 --epsilon 0.2 --steps 16777217", _STEPS + "16777217"),
    ("decoherence-curve --n 100 --epsilon 0.2 --steps 1000000000000", _STEPS + "1000000000000"),
    ("decoherence-curve --n 10 --epsilon 0.5 --gamma-t-max 0", _ENDPOINT + "0.0"),
    ("decoherence-curve --n 10 --epsilon 0.5 --gamma-t-max nan", _ENDPOINT + "nan"),
    ("decoherence-curve --n 100 --epsilon 0.1 --gamma-t-max inf --steps 4", _ENDPOINT + "inf"),
    # at a subnormal endpoint the step can round up so far that the point
    # before the last passes the endpoint
    ("decoherence-curve --n 10 --epsilon 0.3 --gamma-t-max 1.2846e-320 --steps 1001",
     "gamma_t grid must be sorted ascending"),
    (f"decoherence-curve --n 10 --epsilon 0.1 --steps 3 --n-ref {10**400}",
     _N_REF + "a 1329-bit integer"),
    ("loss-curve --n 10 --epsilon 0.5 --steps 1", _STEPS + "1"),
    ("loss-curve --n 100 --epsilon 0.2 --steps 16777217", _STEPS + "16777217"),
    ("loss-curve --n 100 --epsilon 0.2 --steps 1000000000000", _STEPS + "1000000000000"),
    ("loss-curve --n 8 --epsilon 0.5 --lambda-max 1.2", _LAMBDA_MAX + "1.2"),
    ("loss-curve --n 10 --epsilon 0.5 --lambda-max 1.5", _LAMBDA_MAX + "1.5"),
    ("loss-curve --n 10 --epsilon 0.5 --lambda-max nan", _ENDPOINT + "nan"),
    ("loss-curve --n 10 --epsilon 0.5 --lambda-max inf", _ENDPOINT + "inf"),
    ("loss-curve --n 10 --epsilon 0.3 --lambda-max 4.4e-323 --steps 7",
     "lambda grid must be sorted ascending"),
    (f"loss-curve --n 10 --epsilon 0.1 --steps 3 --n-ref {10**400}",
     _N_REF + "a 1329-bit integer"),
    ("distill-sim --n 10 --epsilon nan", _EPSILON + "nan"),
    ("distill-sim --n 134217729 --epsilon 0.5",
     "N must be an integer in [1, 134217728], got 134217729"),
    ("distill-sim --n 2 --epsilon 0.5 --trials 0", _TRIALS + "0"),
    ("distill-sim --n 2 --epsilon 0.5 --trials -5", _TRIALS + "-5"),
    ("distill-sim --n 10 --epsilon 0.5 --trials 8388609", _TRIALS + "8388609"),
    ("distill-sim --n 10 --epsilon 0.5 --trials 33554432", _TRIALS + "33554432"),
    ("distill-sim --n 10 --epsilon 0.5 --trials 1000000000000000", _TRIALS + "1000000000000000"),
    ("distill-sim --n 2 --epsilon 0.5 --seed -1", _SEED + "-1"),
    (f"distill-sim --n 2 --epsilon 0.5 --seed {2**64}", _SEED + "a 65-bit integer"),
    ("validate --max-n 1", _MAX_N + "1"),
    ("validate --max-n 9", _MAX_N + "9"),
    ("validate --max-n 20", _MAX_N + "20"),
)


# named predicates: a test that cannot take a point leaves it out through one
def has_filter(eps): return eps > 0.0  # build_filter refuses eps = 0, where |phi1> = |phi2>
def product_state(eps): return CatParams(1, eps).one_minus_c == 0.0  # no party passes the filter
def no_normal_k2(eps): return CatParams(1, eps).one_minus_c < sys.float_info.min  # oracle refuses
# for a test that pays seconds a point: both ends, the headline angle and pi/4
def coarse(eps): return eps in (0.0, 5e-324, 1e-3, math.pi / 4, HALF_PI - 1e-8, HALF_PI)
def reportable(n): return n >= 2  # the report, reduced_rho1 and entropy_s1 refuse N = 1
def small(n): return n <= 10**3  # a scan of all N + 1 outcomes takes milliseconds
def dense(n): return n <= 10**6  # an O(N) reference (an all-k scan, a hazard table) takes about 2 s
def distributable(n): return n <= distillation.MAX_DISTRIBUTION_N  # the distribution's cap


if __name__ == "__main__":
    if sys.argv[1] == "refused":
        print(*(f"{argv}\t{message}" for argv, message in REFUSED), sep="\n")
    else:
        print(*map(repr, {"eps": EPS, "n": filter(reportable, NS)}[sys.argv[1]]))
