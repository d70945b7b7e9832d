"""Directed-rounded interval arithmetic on IEEE-754 binary64.

Soundness model: every primitive is computed with the platform libm (error
below one ulp for the functions used here) and then widened outward by one
ulp per endpoint with ``math.nextafter``.  This over-approximates true
directed rounding, which is not portably switchable from Python, so every
interval result encloses the exact image of its inputs.

Only the function domains needed by the bound formulas are supported;
intervals are always finite and nonempty.  An operation with no finite
enclosure on its input (an overflow, a domain endpoint, a divisor
straddling zero) raises ``IndeterminateCell``, never a wrong enclosure.
"""

from __future__ import annotations

import math
from .errors import DomainError

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class IndeterminateCell(DomainError):
    """No finite enclosure on this cell: the certification engine
    subdivides further, never counting the cell verified."""


class Interval:
    """Closed interval [lo, hi] with outward-rounded operations."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IndeterminateCell(f"no finite enclosure: [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"inverted interval: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def ratio(num: float, den: float) -> "Interval":
        """Enclosure of the exact quotient of two floats (e.g. 2/3)."""
        q = num / den
        return Interval(_down(q), _up(q))

    # -- structure ----------------------------------------------------

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval(other, other)

    def __add__(self, other):
        o = self._coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        o = self._coerce(other)
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise IndeterminateCell("division by interval containing zero")
        p = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sq(self) -> "Interval":
        if self.lo >= 0:
            return Interval(_down(self.lo * self.lo), _up(self.hi * self.hi))
        if self.hi <= 0:
            return Interval(_down(self.hi * self.hi), _up(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _up(m * m))

    # -- monotone elementary functions --------------------------------

    def _mono_inc(self, f) -> "Interval":
        return Interval(_down(f(self.lo)), _up(f(self.hi)))

    def log(self):
        if self.lo <= 0:
            raise IndeterminateCell("log of interval touching zero")
        return self._mono_inc(math.log)

    def sqrt(self):
        if self.lo < 0:
            raise IndeterminateCell("sqrt of partially negative interval")
        return self._mono_inc(math.sqrt)

    def sinh(self):
        try:
            return self._mono_inc(math.sinh)
        except OverflowError:
            raise IndeterminateCell(f"sinh overflow on {self!r}") from None

    def cosh(self):
        try:
            if self.lo >= 0:
                return self._mono_inc(math.cosh)
            if self.hi <= 0:
                return Interval(_down(math.cosh(self.hi)), _up(math.cosh(self.lo)))
            return Interval(1.0, _up(math.cosh(max(-self.lo, self.hi))))
        except OverflowError:
            raise IndeterminateCell(f"cosh overflow on {self!r}") from None

    def asinh(self):
        return self._mono_inc(math.asinh)

    def atanh(self):
        if not (-1.0 < self.lo and self.hi < 1.0):
            raise IndeterminateCell("atanh domain")
        return self._mono_inc(math.atanh)

    def acosh(self):
        """Strict arccosh: the whole interval must lie in [1, inf)."""
        if self.lo < 1.0:
            raise DomainError(f"acosh argument interval below 1: {self!r}")
        return Interval(max(0.0, _down(math.acosh(self.lo))), _up(math.acosh(self.hi)))

    def acosh_clamped(self):
        """One-sided arccosh for straddling cells: uses acosh(x) >= 0.

        Sound for upper bounds on the result; the lower endpoint is 0 when
        the argument interval dips below 1 (configuration degenerate there).
        Raises DomainError if the interval lies entirely below 1.
        """
        if self.hi < 1.0:
            raise DomainError(f"acosh argument interval entirely below 1: {self!r}")
        if self.lo < 1.0:
            return Interval(0.0, _up(math.acosh(self.hi)))
        return self.acosh()

    def asin(self):
        if self.lo < -1.0 or self.hi > 1.0:
            raise IndeterminateCell("asin domain")
        return self._mono_inc(math.asin)

    def sin(self):
        """Sine restricted to an interval inside [0, pi/2] (monotone part)."""
        if self.lo < 0 or self.hi > math.pi / 2:
            raise IndeterminateCell("sin supported on [0, pi/2] only")
        return self._mono_inc(math.sin)

    def sinhc(self):
        """sinh(x)/x extended by 1 at x = 0; even, minimum 1 at 0, and
        increasing in |x| (the Taylor series of sinh(x)/x has only
        positive coefficients).
        """
        try:
            if self.lo >= 0:
                return Interval(_down(_sinhc(self.lo)), _up(_sinhc(self.hi)))
            if self.hi <= 0:
                return Interval(_down(_sinhc(-self.hi)), _up(_sinhc(-self.lo)))
            return Interval(1.0, _up(_sinhc(max(-self.lo, self.hi))))
        except OverflowError:
            raise IndeterminateCell(f"sinhc overflow on {self!r}") from None

    # -- lattice of intervals -----------------------------------------

    def min_with(self, other) -> "Interval":
        o = self._coerce(other)
        return Interval(min(self.lo, o.lo), min(self.hi, o.hi))

    def max_with(self, other) -> "Interval":
        o = self._coerce(other)
        return Interval(max(self.lo, o.lo), max(self.hi, o.hi))


def _sinhc(x: float) -> float:
    if x == 0.0:
        return 1.0
    if x < 1e-4:
        # series; avoids 0/0 noise near the removable singularity
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


# Enclosures of constants used throughout the bound formulas.
IPI = Interval(_down(math.pi), _up(math.pi))
IW = Interval.point(2.0).acosh()                      # arccosh 2
IWP = Interval.ratio(2.0, 3.0).atanh()                # arctanh(2/3)
