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
    assert gram.mode is lattice.Mode.PPAV and len(minima.values) == gram.dim
    total = fold(add, map(math.log, minima.values), 0.0)
    ceiling = bounds.minkowski_product_log_bound(gram.dim // 2)
    return {"sum_log_minima_sq": total, "log_bound": ceiling,
            "slack": ceiling - total, "passed": total <= ceiling + 1e-12}

