"""Oracles and generators shared by the tests.

- ``mp``, a private 50-digit mpmath context (no test changes mpmath's
  global precision), and ``encloses``, the containment check of an
  interval enclosure against an exact value.
- One mpmath source formula per collar lemma and per genus ceiling of
  ``bounds``, named after the function it checks, written as the lemma
  states it, before any interval rewrite.
- ``skew``, the seeded unimodular skew of a Gram matrix in exact
  integers, and ``random_unimodular``, the milder skew of the numpy-seeded
  tests.
- The brute-force lattice search, which enumerates the coefficient box
  given by the Cauchy-Schwarz bound per coordinate (diagonal of G^-1
  times the radius), so it double-checks every operation that admits
  exhaustive search.
- ``rational_pivots``, exact Gaussian elimination over the rationals,
  for the rank of witness rows and the determinant of a basis change.
- ``check_minkowski``, Minkowski's second theorem on computed minima: no
  command prints it, so it lives here, on ``bounds``' product ceiling.
- ``CERTIFY_ALL``, the frozen default certify report, with its field
  names ``CERTIFY_KEYS``.
"""

import itertools
import math
from fractions import Fraction
from functools import reduce as fold  # sum() of floats compensates from 3.12 on
from operator import add

import mpmath
import numpy as np

from schottky_gauge import bounds, lattice

mp = mpmath.MPContext()
mp.dps = 50


def encloses(enc, value) -> bool:
    """Whether the interval ``enc`` contains the exact ``value``."""
    return mp.mpf(enc.lo) <= value <= mp.mpf(enc.hi)


# -- collar lemmas -----------------------------------------------------------

W = mp.acosh(2)
WP = mp.atanh(mp.mpf(2) / 3)


def dcap(w):
    return mp.pi - 2 * mp.asin(1 / mp.cosh(w))


def capacity(l, w):
    return l / dcap(w)


def separation(half):
    return mp.asinh(1 / mp.sinh(half))


def half_over_quarter(y):
    return mp.cosh(y / 2) / mp.cosh(y / 4)


def config1_width(y):
    return max(separation(y / 2), mp.acosh(half_over_quarter(y)))


def area_width(g, y):
    return mp.asinh(2 * mp.pi * (g - 1) / y)


def pentagon(a, b):
    return mp.acosh(mp.sinh(a) * mp.sinh(b))


def hexagon_rhs(a, connector, b):
    """cosh of the side opposite the connector of a right-angled hexagon."""
    return mp.sinh(a) * mp.sinh(b) * mp.cosh(connector) - mp.cosh(a) * mp.cosh(b)


def crossing_den(x):
    return mp.sqrt(mp.cosh(x / 4) ** 2 * mp.cosh(WP) ** 2 - 1)


def crossing_width(alpha1, w1, r1):
    """The general crossing-width floor
    arcsinh(sinh w1 sinh(alpha1/2) / sqrt(cosh^2 r1 cosh^2 w1 - 1))."""
    den = mp.sqrt(mp.cosh(r1) ** 2 * mp.cosh(w1) ** 2 - 1)
    return mp.asinh(mp.sinh(w1) * mp.sinh(alpha1 / 2) / den)


def qwtwo(a):
    return crossing_width(a, WP, a / 4)


def config2_width(y):
    return min(mp.mpf("0.66"), mp.acosh(half_over_quarter(y) / mp.cosh(WP)))


def config2_crossing_width(y):
    return mp.asinh(mp.cosh(y / 2) / crossing_den(y))


# -- genus ceilings ----------------------------------------------------------

def log8(g):
    return mp.log(8 * g - 7)


def thm_main_m1(g):
    return mp.log(4 * g - 2)


def thm_main_m2(g):
    return mp.mpf(31) / 10 * log8(g)


def thm_bs_upper(g):
    return 3 / mp.pi * thm_main_m1(g)


def systole_gamma1(g):
    return 2 * thm_main_m1(g)


def systole_gamma2(g):
    return 3 * log8(g)


def bavard(theta):
    return 4 * mp.acosh(1 / (2 * mp.sin(theta)))


def bavard_bound(g):
    return bavard(mp.pi * (g + 1) / (12 * g))


BAVARD_LIMIT = bavard(mp.pi / 12)
HYPERELLIPTIC = 3 / mp.pi * mp.log(3 + 2 * mp.sqrt(3) + 2 * mp.sqrt(5 + 3 * mp.sqrt(3)))


# -- lattices ----------------------------------------------------------------

def skew(gram, rng, steps=12):
    """T^T G T for a unimodular T of ``steps`` row operations
    t[i] += m t[j], each i != j and m in {-2, -1, 1, 2} drawn from the
    ``random.Random`` ``rng``; exact on an integer G."""
    d = len(gram)
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-2, -1, 1, 2))
        t[i] = [a + m * b for a, b in zip(t[i], t[j])]
    gt = [[sum(g_ab * t[b][j] for b, g_ab in enumerate(row)) for j in range(d)]
          for row in gram]
    return [[sum(t[a][i] * gt[a][j] for a in range(d)) for j in range(d)]
            for i in range(d)]


def random_unimodular(rng, d, tries=12):
    """An integer unimodular T from ``tries`` draws of a row operation
    t[i] += m t[j] with i, j in range(d) and m in -2..2 from the numpy
    Generator ``rng``; a draw with i = j is skipped. Its skews are milder
    than ``skew``'s: at ``skew``'s strength float x.G.x on the skewed form
    misses the minima's 1e-9 invariance tolerance (see ROADMAP item 10)."""
    t = np.eye(d, dtype=np.int64)
    for _ in range(tries):
        i, j = rng.integers(0, d, size=2)
        if i != j:
            t[i] += int(rng.integers(-2, 3)) * t[j]
    return t


def brute_force_below(entries, radius_sq):
    """Exhaustive +/- class search over the Cauchy-Schwarz coefficient box."""
    g = np.asarray(entries, dtype=float)
    d = g.shape[0]
    inv_diag = np.diag(np.linalg.inv(g))
    box = [int(math.floor(math.sqrt(radius_sq * inv_diag[i] * (1 + 1e-9)))) + 1
           for i in range(d)]
    out = {}
    for coeffs in itertools.product(*(range(-b, b + 1) for b in box)):
        if not any(coeffs):
            continue
        first = next(c for c in coeffs if c)
        if first < 0:
            continue
        x = np.array(coeffs, dtype=float)
        n = float(x @ g @ x)
        if n <= radius_sq * (1 + 1e-9):
            out[coeffs] = n
    return out


def brute_force_minima(entries, k):
    """The first k successive minima by one exhaustive search, with rank
    decided exactly by ``rational_pivots``: the unit vectors span and all
    have norm <= the largest diagonal entry, so that radius holds the
    minima of every k <= d."""
    g = np.asarray(entries, dtype=float)
    vecs = sorted(brute_force_below(g, float(np.max(np.diag(g)))).items(),
                  key=lambda kv: (kv[1], kv[0]))
    basis, values = [], []
    for coeffs, norm in vecs:
        if len(rational_pivots(basis + [coeffs])) > len(basis):
            basis.append(coeffs)
            values.append(norm)
            if len(values) == k:
                return values
    raise ValueError(f"fewer than {k} independent vectors below the radius")


def rational_pivots(vecs):
    """The pivots of Gaussian elimination over the rationals: as many as
    the rank, and for a square matrix their product is the determinant up
    to sign."""
    rows = [[Fraction(c) for c in v] for v in vecs]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(rows[r][col])
    return pivots


def check_minkowski(gram, minima) -> dict:
    """Second-theorem compliance of a PPAV's dim minima: the left-to-right
    sum of log m_k^2 against ``bounds.minkowski_product_log_bound``, with
    1e-12 of slack, so minima exactly at the ceiling pass."""
    assert gram.mode is lattice.Mode.PPAV and minima.k == gram.dim
    total = fold(add, map(math.log, minima.values), 0.0)
    ceiling = bounds.minkowski_product_log_bound(gram.dim // 2)
    return {"sum_log_minima_sq": total, "log_bound": ceiling,
            "slack": ceiling - total, "passed": total <= ceiling + 1e-12}


# The default certify report (g_max 1e6), row for row as
# ``certify --families all`` prints it. test_float_golden.py compares every
# field exactly; test_certify.py's test_default_report_frozen holds the
# statuses and counts and min_slack_lo to 1e-12 relative. A speedup must
# leave all of it unchanged. A soundness change (wider enclosures in the
# interval layer, or a box widened to cover its stated endpoints) may move
# these figures; it re-freezes them here and records the old and new
# values in CHANGES.md.
CERTIFY_KEYS = (
    "family", "status", "min_slack_lo", "min_slack_hi", "witness",
    "cells_processed", "max_depth", "tail_status", "tail_note",
    "vacuous_cells", "g_max", "note",
)

CERTIFY_ALL = [
    ("CF-A", "Certified", 0.00016126374367431135, 1.6594792220014374,
     {"g": 134.51154586901777, "gamma": 0.9203884727313851}, 13965, 14,
     "Proven",
     "slack floor 0.563163 beyond g_max: log-majorization of "
     "arccosh, g-free floor", 0, 1000000.0, ""),
    ("CF-B", "Certified", 1.2619250327438143, 17.787721660631842,
     {"g": 733.6982606712725, "gamma": 1.1780972450961729}, 65, 8, "Proven",
     "slack floor 3.89772 beyond g_max: log-majorization of "
     "arccosh, g-free floor", 0, 1000000.0, ""),
    ("CF-C", "Certified", 0.004228468457058709, 0.06969841203736539,
     {"alpha1": 1.134765625}, 15, 7, "Proven",
     "slack floor 1.92718 beyond g_max: width floor for alpha1 >= "
     "10.0 (covers every genus cap)", 0, 1000000.0, ""),
    ("CF-D", "Certified", 0.39614213042225893, 1.9460857476240199,
     {"g": 2.227570395565804}, 13, 6, "Proven",
     "slack floor 24.4794 beyond g_max: log-coefficient "
     "comparison, increasing in g", 0, 1000000.0, ""),
    ("CF-E", "Certified", 0.04575316208483659, 0.7180151419936297,
     {"g": 2.107957758926668, "gamma2": 7.037265076609534}, 99, 14, "Proven",
     "slack floor 7.41344 beyond g_max: two-regime split at "
     "gamma2 = 10, increasing in g", 7, 1000000.0, ""),
    ("CF-F", "Certified", 0.0023534994471079425, 0.8297787935919817,
     {"g": 228.1198022454164, "gamma": 13.355825070810221}, 350, 15,
     "Proven",
     "slack floor 0.0807552 beyond g_max: capacity ceiling 3 "
     "gamma/(2 pi) above K, g-free", 38, 1000000.0, ""),
    ("CF-G", "Certified", 0.0007456296975852926, 0.0007456296975865141,
     {}, 1, 0, "N/A",
     "", 0, 1000000.0, ""),
    ("CF-H", "Certified", 0.009025234112393197, 0.49869362156288827,
     {"gamma2": 2.5523437499999995}, 13, 6, "Proven",
     "slack floor 13.7461 beyond g_max: width floor for gamma2 >= "
     "60 (covers every genus cap)", 0, 1000000.0, ""),
    ("CF-I", "Certified", 4.5677823514722596e-06, 2.0496056345593994,
     {"g": 500001.0}, 1, 0, "Proven",
     "slack floor 0 beyond g_max: theta(g) > pi/12 strictly for "
     "every finite g", 0, 1000000.0, ""),
    ("CF-J", "Certified", 0.0013066739078548826, 0.010572490680081816,
     {"alpha1": 1.50830078125}, 19, 9, "Proven",
     "slack floor 2.12474 beyond g_max: width floor for alpha1 >= "
     "10.0", 0, 1000000.0, ""),
]
