"""The edge points of the parameter domain, the one table of them: every test
that sweeps the edges of eps or N reads its points here, and so does the CI
console loop (``python tests/domain.py eps``, or ``n``).  A test that cannot
take a point leaves it out through a named predicate.
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
    print(*map(repr, {"eps": EPS, "n": filter(reportable, NS)}[sys.argv[1]]))
