"""Hyperbolic trigonometry primitives.

Right-angled pentagon and hexagon relations, evaluated on binary64 floats
with libm's ``math.cosh`` and ``math.sinh``.  The certification engine
builds its interval enclosures directly from
:mod:`schottky_gauge.interval`.  Domain failures raise
:class:`DomainError` instead of clamping: an arccosh argument below 1
means the polygon in question does not exist.
"""

from __future__ import annotations

import math

from .errors import DomainError


def acosh_safe(x: float) -> float:
    """arccosh with an explicit domain guard."""
    if x < 1.0:
        raise DomainError(f"acosh argument {x} < 1")
    return math.acosh(x)


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
