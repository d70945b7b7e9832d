"""Directed-rounded interval arithmetic on IEEE-754 binary64.

Soundness model: every primitive is computed in binary64 with the platform
libm and then widened outward per endpoint with ``math.nextafter``, by as
many ulps as the primitive's error allows:

- 1 ulp for +, -, *, /, sqrt (correctly rounded) and for log, asin and
  sin (libm error below one ulp);
- 2 ulp for sinh, cosh, asinh, acosh and atanh, whose glibc error is
  documented up to 2 ulp (an mpmath oracle found 1.5 to 1.7 ulp for
  sinh, asinh, acosh and atanh);
- 4 ulp for sinhc = sinh(x)/x: sinh's 2 ulp and the quotient's rounding.

This over-approximates true directed rounding, which is not portably
switchable from Python, so every interval result encloses the exact
image of its inputs on a libm within those bounds.  Products and
quotients with operands of known sign take only the two endpoint products
that bound them; rounding to nearest is monotone, so those are exactly the
min and max of the four-product formula, and the soundness model is
unchanged.

Only the function domains needed by the bound formulas are supported;
intervals are always finite and nonempty.  An operation with no finite
enclosure on its input (an overflow, a domain endpoint, a divisor
straddling zero) raises ``IndeterminateCell``, never a wrong enclosure.
"""

from __future__ import annotations

import math
from .errors import DomainError

_INF = math.inf
_NEG_INF = -math.inf
_next = math.nextafter


class IndeterminateCell(DomainError):
    """No finite enclosure on this cell: the certification engine
    subdivides further, never counting the cell verified."""


class Interval:
    """Closed interval [lo, hi] with outward-rounded operations."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not (_NEG_INF < lo <= hi < _INF):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise IndeterminateCell(f"no finite enclosure: [{lo}, {hi}]")
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
        return Interval(_next(q, _NEG_INF), _next(q, _INF))

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

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(_next(self.lo + other.lo, _NEG_INF),
                            _next(self.hi + other.hi, _INF))
        return Interval(_next(self.lo + other, _NEG_INF), _next(self.hi + other, _INF))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(_next(self.lo - other.hi, _NEG_INF),
                            _next(self.hi - other.lo, _INF))
        return Interval(_next(self.lo - other, _NEG_INF), _next(self.hi - other, _INF))

    def __rsub__(self, other):
        return Interval(_next(other - self.hi, _NEG_INF), _next(other - self.lo, _INF))

    def __mul__(self, other):
        lo, hi = self.lo, self.hi
        if isinstance(other, Interval):
            olo, ohi = other.lo, other.hi
            if lo >= 0.0 and olo >= 0.0:
                return Interval(_next(lo * olo, _NEG_INF), _next(hi * ohi, _INF))
            p = (lo * olo, lo * ohi, hi * olo, hi * ohi)
            return Interval(_next(min(p), _NEG_INF), _next(max(p), _INF))
        if other >= 0.0:
            return Interval(_next(lo * other, _NEG_INF), _next(hi * other, _INF))
        return Interval(_next(hi * other, _NEG_INF), _next(lo * other, _INF))

    __rmul__ = __mul__

    def __truediv__(self, other):
        lo, hi = self.lo, self.hi
        if isinstance(other, Interval):
            olo, ohi = other.lo, other.hi
            if lo >= 0.0 and olo > 0.0:
                return Interval(_next(lo / ohi, _NEG_INF), _next(hi / olo, _INF))
            if olo <= 0.0 <= ohi:
                raise IndeterminateCell("division by interval containing zero")
            p = (lo / olo, lo / ohi, hi / olo, hi / ohi)
            return Interval(_next(min(p), _NEG_INF), _next(max(p), _INF))
        if 0.0 < other < _INF:
            return Interval(_next(lo / other, _NEG_INF), _next(hi / other, _INF))
        # any other divisor, a zero or non-finite one included, takes the
        # four-quotient path and raises there as an interval divisor would
        return self / Interval.point(other)

    def __rtruediv__(self, other):
        lo, hi = self.lo, self.hi
        if lo > 0.0 and 0.0 <= other < _INF:
            return Interval(_next(other / hi, _NEG_INF), _next(other / lo, _INF))
        return Interval.point(other) / self

    def sq(self) -> "Interval":
        if self.lo >= 0:
            return Interval(_next(self.lo * self.lo, _NEG_INF),
                            _next(self.hi * self.hi, _INF))
        if self.hi <= 0:
            return Interval(_next(self.hi * self.hi, _NEG_INF),
                            _next(self.lo * self.lo, _INF))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _next(m * m, _INF))

    # -- monotone elementary functions --------------------------------

    def _mono_inc(self, f) -> "Interval":
        return Interval(_next(f(self.lo), _NEG_INF), _next(f(self.hi), _INF))

    def log(self):
        if self.lo <= 0:
            raise IndeterminateCell("log of interval touching zero")
        return self._mono_inc(math.log)

    def sqrt(self):
        if self.lo < 0:
            raise IndeterminateCell("sqrt of partially negative interval")
        return self._mono_inc(math.sqrt)

    # sinh, cosh, asinh, acosh and atanh widen by 2 ulp per endpoint

    def sinh(self):
        try:
            lo, hi = math.sinh(self.lo), math.sinh(self.hi)
        except OverflowError:
            raise IndeterminateCell(f"sinh overflow on {self!r}") from None
        return Interval(_next(_next(lo, _NEG_INF), _NEG_INF),
                        _next(_next(hi, _INF), _INF))

    def cosh(self):
        """Even, with its minimum 1 at 0, which floors the lower end."""
        lo, hi = self.lo, self.hi
        try:
            if lo >= 0:
                lo, hi = math.cosh(lo), math.cosh(hi)
            elif hi <= 0:
                lo, hi = math.cosh(hi), math.cosh(lo)
            else:
                lo, hi = 1.0, math.cosh(max(-lo, hi))
        except OverflowError:
            raise IndeterminateCell(f"cosh overflow on {self!r}") from None
        return Interval(max(1.0, _next(_next(lo, _NEG_INF), _NEG_INF)),
                        _next(_next(hi, _INF), _INF))

    def asinh(self):
        lo, hi = math.asinh(self.lo), math.asinh(self.hi)
        return Interval(_next(_next(lo, _NEG_INF), _NEG_INF),
                        _next(_next(hi, _INF), _INF))

    def atanh(self):
        if not (-1.0 < self.lo and self.hi < 1.0):
            raise IndeterminateCell("atanh domain")
        lo, hi = math.atanh(self.lo), math.atanh(self.hi)
        return Interval(_next(_next(lo, _NEG_INF), _NEG_INF),
                        _next(_next(hi, _INF), _INF))

    def acosh(self):
        """Strict arccosh: the whole interval must lie in [1, inf)."""
        if self.lo < 1.0:
            raise DomainError(f"acosh argument interval below 1: {self!r}")
        lo, hi = math.acosh(self.lo), math.acosh(self.hi)
        return Interval(max(0.0, _next(_next(lo, _NEG_INF), _NEG_INF)),
                        _next(_next(hi, _INF), _INF))

    def acosh_clamped(self):
        """One-sided arccosh for straddling cells: uses acosh(x) >= 0.

        Sound for upper bounds on the result; the lower endpoint is 0 when
        the argument interval dips below 1 (configuration degenerate there).
        Raises DomainError if the interval lies entirely below 1.
        """
        if self.hi < 1.0:
            raise DomainError(f"acosh argument interval entirely below 1: {self!r}")
        if self.lo < 1.0:
            return Interval(0.0, _next(_next(math.acosh(self.hi), _INF), _INF))
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
        positive coefficients).  Widened by 4 ulp per endpoint: sinh's
        2 ulp and the quotient's rounding, with room to spare.
        """
        lo, hi = self.lo, self.hi
        try:
            if lo >= 0:
                lo, hi = _sinhc(lo), _sinhc(hi)
            elif hi <= 0:
                lo, hi = _sinhc(-hi), _sinhc(-lo)
            else:
                lo, hi = 1.0, _sinhc(max(-lo, hi))
        except OverflowError:
            raise IndeterminateCell(f"sinhc overflow on {self!r}") from None
        lo = _next(_next(_next(_next(lo, _NEG_INF), _NEG_INF), _NEG_INF), _NEG_INF)
        hi = _next(_next(_next(_next(hi, _INF), _INF), _INF), _INF)
        return Interval(max(1.0, lo), hi)

    # -- lattice of intervals -----------------------------------------

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))


def _sinhc(x: float) -> float:
    return 1.0 if x == 0.0 else math.sinh(x) / x


# Enclosures of constants used throughout the bound formulas.
IPI = Interval(_next(math.pi, _NEG_INF), _next(math.pi, _INF))
IW = Interval.point(2.0).acosh()                      # arccosh 2
IWP = Interval.ratio(2.0, 3.0).atanh()                # arctanh(2/3)
