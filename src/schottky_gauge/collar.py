"""Collar geometry of simple closed geodesics.

Capacity of a collar, lower and upper bounds on collar widths, Y-piece
boundary lengths for the two self-intersection configurations, and the
homology-basis bounds for a one-holed torus.  All lengths are hyperbolic
lengths in curvature -1 units.

These are the float forms of the lemmas that ``certify`` proves in
interval arithmetic.  Each formula is written once and specialized by
calling it: ``qwtwo`` is the crossing-width bound at W', the crossing and
configuration-2 floors share one denominator, the configuration-1 floor
reuses ``collar_separation``, and ``y2_nu1_exact`` is the pentagon
relation of :mod:`schottky_gauge.hyptrig`.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .hyptrig import acosh_safe, pentagon_opposite


# Collar-width constants.  K is the length threshold at which the
# configuration-1 width floor reaches W (rounded to three decimals).
W = math.acosh(2.0)
W_PRIME = math.atanh(2.0 / 3.0)
K = 3.326


def _positive(name, value):
    if value <= 0:
        raise DomainError(f"{name} must be positive, got {value}")


def capacity(l: float, w: float) -> float:
    """Capacity of a collar of core length l and width w.

    l / (pi - 2 arcsin(1/cosh w)); strictly increasing in l, strictly
    decreasing in w (a wider collar gives a better bound), and an upper
    bound for the squared norm of the associated test form.
    """
    _positive("l", l)
    _positive("w", w)
    return l / (math.pi - 2.0 * math.asin(1.0 / math.cosh(w)))


def y1_nu(gamma: float, w: float) -> float:
    """Exact boundary length nu of the configuration-1 Y-piece.

    nu = 2 arccosh(sinh^2(gamma/2)(cosh 2w - 1) - 1); always below the
    homotopy bound 2*gamma + 4*w.
    """
    _positive("gamma", gamma)
    _positive("w", w)
    arg = math.sinh(gamma / 2.0) ** 2 * (math.cosh(2.0 * w) - 1.0) - 1.0
    if arg < 1.0:
        raise DomainError(f"no configuration-1 Y-piece: arccosh argument {arg} < 1")
    return 2.0 * math.acosh(arg)


def y1_eta_bound(gamma: float, w: float) -> float:
    """Upper bound gamma/2 + 2w for the short geodesic eta of configuration 1."""
    _positive("gamma", gamma)
    _positive("w", w)
    return gamma / 2.0 + 2.0 * w


def y2_nu1_exact(gamma: float, w: float) -> float:
    """Pentagon bound 2 arccosh(sinh(gamma/4) sinh(w)) for nu1 in configuration 2.

    On its domain the value never exceeds the coarse bound gamma/2 + 2w.
    """
    return 2.0 * pentagon_opposite(gamma / 4.0, w)


def collar_width_lower_bound(gamma: float) -> float:
    """Width floor for a configuration-1 self-intersecting collar,
    max{arcsinh(1/sinh(gamma/2)), arccosh(cosh(gamma/2)/cosh(gamma/4))},
    which is always >= W'.

    Hypothesis: the short geodesic eta of the Y-piece satisfies
    eta >= gamma.  The configuration-2 floor (with nu1 or nu2 > gamma) is
    the constant W.
    """
    _positive("gamma", gamma)
    b1 = collar_separation(gamma)
    b2 = acosh_safe(math.cosh(gamma / 2.0) / math.cosh(gamma / 4.0))
    return max(b1, b2)


def collar_width_area_upper(gamma: float, g: int) -> float:
    """Area-forced width ceiling arcsinh(2 pi (g-1) / gamma) on a genus-g surface."""
    _positive("gamma", gamma)
    if g < 2:
        raise DomainError("genus must be >= 2")
    return math.asinh(2.0 * math.pi * (g - 1) / gamma)


def collar_separation(gamma: float) -> float:
    """Guaranteed distance arcsinh(1/sinh(gamma/2)) of any disjoint geodesic."""
    _positive("gamma", gamma)
    return math.asinh(1.0 / math.sinh(gamma / 2.0))


def crossing_width_bound(alpha1: float, w1: float, r1: float) -> float:
    """Width floor for a geodesic crossing a collar of width w1.

    arcsinh(sinh(w1) sinh(alpha1/2) / sqrt(cosh^2(r1) cosh^2(w1) - 1));
    decreasing in r1, increasing in w1 and alpha1.  r1 may not exceed
    alpha1/4.
    """
    _positive("alpha1", alpha1)
    _positive("w1", w1)
    if r1 < 0 or r1 > alpha1 / 4.0 + 1e-15:
        raise DomainError("crossing offset r1 must lie in [0, alpha1/4]")
    return _crossing_width(math.sinh(w1) * math.sinh(alpha1 / 2.0), r1, w1)


def _crossing_width(num: float, r: float, w: float) -> float:
    """arcsinh(num / sqrt(cosh^2(r) cosh^2(w) - 1)), the crossing width."""
    den_sq = math.cosh(r) ** 2 * math.cosh(w) ** 2 - 1.0
    if den_sq <= 0:
        raise DomainError("degenerate crossing: cosh^2 r1 cosh^2 w1 <= 1")
    return math.asinh(num / math.sqrt(den_sq))


def qwtwo(alpha1: float) -> float:
    """Specialization of the crossing bound at w1 = W', r1 = alpha1/4:
    arcsinh((2/sqrt 5) sinh(alpha1/2) / sqrt((9/5) cosh^2(alpha1/4) - 1)),
    as sinh W' = 2/sqrt 5 and cosh^2 W' = 9/5.
    """
    return crossing_width_bound(alpha1, W_PRIME, alpha1 / 4.0)


def qpiece_basis_bounds(boundary: float) -> tuple[float, float]:
    """Upper bounds (alpha1_max, alpha2_max) for a short homology basis
    of a one-holed torus with the given boundary length.

    The second bound is evaluated at alpha1 = alpha1_max (worst case); use
    :func:`qpiece_basis_bounds_at` when the actual alpha1 is known.
    """
    _positive("boundary", boundary)
    a1 = 2.0 * math.acosh(math.cosh(boundary / 6.0) + 0.5)
    return a1, qpiece_basis_bounds_at(boundary, a1)


def qpiece_basis_bounds_at(boundary: float, alpha1: float) -> float:
    """alpha2 bound from the Q-piece relation, using a known alpha1."""
    _positive("boundary", boundary)
    _positive("alpha1", alpha1)
    ca = math.cosh(alpha1 / 2.0)
    num = math.cosh(boundary / 4.0) ** 2 + ca * ca - 1.0
    den = 2.0 * (ca - 1.0)
    if den <= 0:
        raise DomainError("alpha1 too small: cosh(alpha1/2) <= 1")
    return 2.0 * acosh_safe(math.sqrt(num / den))


def case2c2_width_bound(gamma2: float) -> float:
    """Width floor min{0.66, arccosh(cosh(g2/2)/(cosh(g2/4) cosh(W')))}.

    Stated domain gamma2 >= 2.1, where the arccosh argument exceeds 1.
    """
    if gamma2 < 2.1:
        raise DomainError("width floor established only for gamma2 >= 2.1")
    arg = math.cosh(gamma2 / 2.0) / (math.cosh(gamma2 / 4.0) * math.cosh(W_PRIME))
    return min(0.66, acosh_safe(arg))


def case2c2b_width_bound(gamma2: float) -> float:
    """Configuration-2 width floor
    arcsinh(cosh(g2/2)/sqrt(cosh^2(g2/4) cosh^2(W') - 1)); above 0.96 on
    its domain gamma2 >= 2.1.
    """
    if gamma2 < 2.1:
        raise DomainError("width floor established only for gamma2 >= 2.1")
    return _crossing_width(math.cosh(gamma2 / 2.0), gamma2 / 4.0, W_PRIME)
