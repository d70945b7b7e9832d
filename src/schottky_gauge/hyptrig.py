"""Hyperbolic trigonometry primitives.

Point evaluation on binary64 floats with libm's ``math.cosh`` and
``math.sinh``; the right-triangle hypotenuse alone has a log-space branch,
finite where ``cosh`` overflows.  The certification engine builds its
interval enclosures directly from :mod:`schottky_gauge.interval`.  Domain
failures raise :class:`DomainError` instead of clamping: an arccosh
argument below 1 means the polygon in question does not exist.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Above this threshold log cosh(x) is computed as x - log 2; the dropped
# log(1 + exp(-2x)) term is below 2^-86 relative for x > 30, far under one
# ulp of binary64.  Tested against an mpmath oracle.
LOG_SPACE_THRESHOLD = 30.0


def acosh_safe(x: float) -> float:
    """arccosh with an explicit domain guard."""
    if x < 1.0:
        raise DomainError(f"acosh argument {x} < 1")
    return math.acosh(x)


def right_triangle_hyp(a: float, b: float) -> float:
    """Hypotenuse of a right-angled hyperbolic triangle with legs a, b.

    cosh(c) = cosh(a) cosh(b).
    """
    if a < 0 or b < 0:
        raise DomainError("triangle legs must be nonnegative")
    if a + b <= LOG_SPACE_THRESHOLD:
        return math.acosh(math.cosh(a) * math.cosh(b))
    # acosh(C) = log(2C) - O(1/C^2); the correction is below one ulp here
    return _logcosh(a) + _logcosh(b) + math.log(2.0)


def _logcosh(x: float) -> float:
    x = abs(x)
    if x > LOG_SPACE_THRESHOLD:
        return x - math.log(2.0)
    return math.log(math.cosh(x))


def right_triangle_angle(opposite_w: float, hyp: float) -> float:
    """Angle opposite the side of length ``opposite_w``.

    sin(theta) = sinh(opposite_w) / sinh(hyp); requires opposite_w <= hyp.
    """
    if opposite_w <= 0 or hyp <= 0:
        raise DomainError("triangle sides must be positive")
    if opposite_w > hyp:
        raise DomainError("opposite side exceeds hypotenuse")
    r = math.sinh(opposite_w) / math.sinh(hyp)
    if r > 1.0:
        r = 1.0
    return math.asin(r)


def pentagon_opposite(a: float, b: float) -> float:
    """Side opposite in a right-angled pentagon: cosh(c) = sinh(a) sinh(b)."""
    if a <= 0 or b <= 0:
        raise DomainError("pentagon sides must be positive")
    s = math.sinh(a) * math.sinh(b)
    if s < 1.0:
        raise DomainError(f"sinh({a})*sinh({b}) = {s} < 1: no such pentagon")
    return math.acosh(s)


def hexagon_opposite(a: float, connector: float, b: float) -> float:
    """Side opposite the connector in a right-angled hexagon.

    cosh(c) = sinh(a) sinh(b) cosh(connector) - cosh(a) cosh(b).
    """
    if a <= 0 or b <= 0:
        raise DomainError("hexagon sides must be positive")
    if connector < 0:
        raise DomainError("connector must be nonnegative")
    rhs = (math.sinh(a) * math.sinh(b) * math.cosh(connector)
           - math.cosh(a) * math.cosh(b))
    if rhs < 1.0:
        raise DomainError(f"hexagon degenerates: rhs = {rhs} < 1")
    return math.acosh(rhs)
