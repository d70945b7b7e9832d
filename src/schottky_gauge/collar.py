"""Collar lemmas of simple closed geodesics, as interval forms.

Capacity of a collar, the separation and width floors of a collar, the
area-forced width ceiling, the right-angled pentagon relation behind the
Y-piece boundary lengths, and the crossing width.  All lengths are
hyperbolic lengths in curvature -1 units.

Each lemma has this one definition, a function of
:class:`~schottky_gauge.interval.Interval`.  ``certify`` calls it on
cells to prove the bound inequalities; the ``collar`` and ``ypiece``
commands call it on point intervals and print the midpoint of the
enclosure, which contains the exact value.  W = arccosh 2 and
W' = arctanh(2/3) are the constants ``IW`` and ``IWP`` of
:mod:`schottky_gauge.interval`.
"""

from __future__ import annotations

from .interval import IPI, IWP, Interval

# The length threshold at which the configuration-1 width floor reaches W
# (rounded to three decimals).
K = 3.326

COSH_WP = IWP.cosh()
_SINH_WP = 2.0 / Interval.point(5.0).sqrt()      # sinh W' = 2/sqrt 5 exactly
_COSH_WP_SQ = Interval.ratio(9.0, 5.0)            # cosh^2 W' = 9/5 exactly
WIDTH_CAP = Interval.ratio(66.0, 100.0)           # 0.66


def dcap(w: Interval) -> Interval:
    """pi - 2 arcsin(1/cosh w): the capacity denominator, increasing from
    0 at w = 0 toward pi as the width w grows."""
    return IPI - (1.0 / w.cosh()).asin() * 2.0


def capacity(l: Interval, w: Interval) -> Interval:
    """l / (pi - 2 arcsin(1/cosh w)): capacity of a collar of core length
    l and width w, an upper bound for the squared norm of its test form."""
    return l / dcap(w)


def separation(half: Interval) -> Interval:
    """arcsinh(1/sinh(half)): the distance from a closed geodesic of
    length 2 half that every geodesic disjoint from it keeps."""
    return (1.0 / half.sinh()).asinh()


def half_over_quarter(y: Interval) -> Interval:
    """cosh(y/2)/cosh(y/4), rewritten as 2c - 1/c with c = cosh(y/4),
    which stays finite where cosh(y/2) overflows."""
    c = (y * 0.25).cosh()
    return c * 2.0 - 1.0 / c


def config1_width(y: Interval) -> Interval:
    """Width floor max{arcsinh(1/sinh(y/2)), arccosh(cosh(y/2)/cosh(y/4))}
    of a configuration-1 self-intersecting collar of core length y, at
    least W'.  Hypothesis: the Y-piece's short geodesic eta has eta >= y.
    The configuration-2 floor is the constant W."""
    return separation(y * 0.5).max_with(half_over_quarter(y).acosh_clamped())


def area_width(g: Interval, y: Interval) -> Interval:
    """arcsinh(2 pi (g-1)/y): the width ceiling that the area of a genus-g
    surface forces on a collar of core length y."""
    return ((g - 1.0) * IPI * 2.0 / y).asinh()


def pentagon(a: Interval, b: Interval) -> Interval:
    """Side c opposite the sides a and b of a right-angled pentagon,
    cosh c = sinh a sinh b.  Raises ``DomainError`` when the product's
    enclosure reaches below 1: no such pentagon is proven to exist.

    The Y-piece boundary lengths are 4 pentagon(gamma/2, w) in
    configuration 1 and 2 pentagon(gamma/4, w) in configuration 2.
    """
    return (a.sinh() * b.sinh()).acosh()


def crossing_den(x: Interval) -> Interval:
    """sqrt(cosh^2(x/4) cosh^2 W' - 1): the crossing-width denominator at
    a collar of width W' crossed at offset x/4."""
    return (_COSH_WP_SQ * (x * 0.25).cosh().sq() - 1.0).sqrt()


def qwtwo(a: Interval) -> Interval:
    """arcsinh(sinh W' sinh(a/2) / crossing_den(a)): width floor for a
    geodesic of length a crossing a collar of width W' at offset a/4."""
    return (_SINH_WP * (a * 0.5).sinh() / crossing_den(a)).asinh()


def config2_width(y: Interval) -> Interval:
    """Configuration-2 second-collar width floor
    min{0.66, arccosh(cosh(y/2)/(cosh(y/4) cosh W'))}, stated for
    y >= 2.1, where the arccosh argument exceeds 1."""
    return (half_over_quarter(y) / COSH_WP).acosh_clamped().min_with(WIDTH_CAP)


def config2_crossing_width(y: Interval) -> Interval:
    """Configuration-2 crossing width floor arcsinh(cosh(y/2)/crossing_den(y)),
    above 0.96 for y >= 2.1."""
    return ((y * 0.5).cosh() / crossing_den(y)).asinh()
