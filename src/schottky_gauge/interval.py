"""Directed-rounded interval arithmetic on IEEE-754 binary64.

Soundness model: every primitive is computed in binary64 with the platform
libm and then widened outward per endpoint with ``math.nextafter``, by as
many ulps as the primitive's error allows:

- 1 ulp for +, -, *, /, sqrt (correctly rounded) and for log, asin and
  sin (libm error below one ulp);
- 2 ulp for sinh, cosh, asinh and acosh, whose glibc error is
  documented up to 2 ulp (an mpmath oracle found 1.5 to 1.7 ulp for
  sinh, asinh and acosh);
- 4 ulp for sinhc = sinh(x)/x: sinh's 2 ulp and the quotient's rounding.

Each elementary function is a domain check and one call to ``_outward``,
whose arguments state its ulp count and the floor of its range.  The
widening over-approximates true directed rounding, which is not portably
switchable from Python, so every interval result encloses the exact
image of its inputs on a libm within those bounds.  A float operand of
+, -, * and / is its point interval [x, x], so each has one formula.
Products and quotients with operands of known sign take only the two
endpoint products that bound them; rounding to nearest is monotone, so
those are exactly the min and max of the four-product formula, and the
soundness model is unchanged.

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
        return Interval.point(num) / den

    # -- structure ----------------------------------------------------

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Interval):
            other = Interval.point(other)
        return Interval(_next(self.lo + other.lo, _NEG_INF),
                        _next(self.hi + other.hi, _INF))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Interval):
            other = Interval.point(other)
        return Interval(_next(self.lo - other.hi, _NEG_INF),
                        _next(self.hi - other.lo, _INF))

    def __rsub__(self, other):
        return Interval.point(other) - self

    def __mul__(self, other):
        if not isinstance(other, Interval):
            other = Interval.point(other)
        lo, hi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        if lo >= 0.0 and olo >= 0.0:
            return Interval(_next(lo * olo, _NEG_INF), _next(hi * ohi, _INF))
        p = (lo * olo, lo * ohi, hi * olo, hi * ohi)
        return Interval(_next(min(p), _NEG_INF), _next(max(p), _INF))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Interval):
            other = Interval.point(other)
        lo, hi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        if lo >= 0.0 and olo > 0.0:
            return Interval(_next(lo / ohi, _NEG_INF), _next(hi / olo, _INF))
        if olo <= 0.0 <= ohi:
            raise IndeterminateCell("division by interval containing zero")
        p = (lo / olo, lo / ohi, hi / olo, hi / ohi)
        return Interval(_next(min(p), _NEG_INF), _next(max(p), _INF))

    def __rtruediv__(self, other):
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

    # -- elementary functions: a domain check, then one _outward call ----

    def _near_far(self) -> tuple[float, float]:
        """The cell's points nearest to 0 and farthest from it."""
        lo, hi = self.lo, self.hi
        if lo >= 0:
            return lo, hi
        if hi <= 0:
            return -hi, -lo
        return 0.0, max(-lo, hi)

    def log(self):
        if self.lo <= 0:
            raise IndeterminateCell("log of interval touching zero")
        return _outward(self, math.log, self.lo, self.hi, 1)

    def sqrt(self):
        if self.lo < 0:
            raise IndeterminateCell("sqrt of partially negative interval")
        return _outward(self, math.sqrt, self.lo, self.hi, 1)

    def sinh(self):
        return _outward(self, math.sinh, self.lo, self.hi, 2)

    def cosh(self):
        """Even, with its minimum 1 at 0, which floors the lower end."""
        a, b = self._near_far()
        return _outward(self, math.cosh, a, b, 2, 1.0)

    def asinh(self):
        return _outward(self, math.asinh, self.lo, self.hi, 2)

    def acosh(self):
        """Strict arccosh: the whole interval must lie in [1, inf)."""
        if self.lo < 1.0:
            raise DomainError(f"acosh argument interval below 1: {self!r}")
        return _outward(self, math.acosh, self.lo, self.hi, 2, 0.0)

    def acosh_clamped(self):
        """One-sided arccosh for straddling cells: uses acosh(x) >= 0.

        Sound for upper bounds on the result; the lower endpoint is 0 when
        the argument interval dips below 1 (configuration degenerate there).
        Raises DomainError if the interval lies entirely below 1.
        """
        if self.hi < 1.0:
            raise DomainError(f"acosh argument interval entirely below 1: {self!r}")
        return Interval(max(self.lo, 1.0), self.hi).acosh()

    def asin(self):
        if self.lo < -1.0 or self.hi > 1.0:
            raise IndeterminateCell("asin domain")
        return _outward(self, math.asin, self.lo, self.hi, 1)

    def sin(self):
        """Sine restricted to an interval inside [0, pi/2] (monotone part)."""
        if self.lo < 0 or self.hi > math.pi / 2:
            raise IndeterminateCell("sin supported on [0, pi/2] only")
        return _outward(self, math.sin, self.lo, self.hi, 1)

    def sinhc(self):
        """sinh(x)/x extended by 1 at x = 0; even, minimum 1 at 0, and
        increasing in |x| (the Taylor series of sinh(x)/x has only
        positive coefficients).  Widened by 4 ulp per endpoint: sinh's
        2 ulp and the quotient's rounding, with room to spare.
        """
        a, b = self._near_far()
        return _outward(self, sinhc, a, b, 4, 1.0)

    # -- lattice of intervals -----------------------------------------

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))


def _outward(cell: Interval, f, a: float, b: float, ulps: int,
             floor: float = _NEG_INF) -> Interval:
    """libm's f at a and at b, each stepped outward by exactly ulps ulps,
    the lower end held at floor: the enclosure on cell of an f increasing
    from a to b.  An overflow of f is an IndeterminateCell."""
    try:
        lo, hi = f(a), f(b)
    except OverflowError:
        raise IndeterminateCell(f"{f.__name__} overflow on {cell!r}") from None
    while ulps:
        lo, hi = _next(lo, _NEG_INF), _next(hi, _INF)
        ulps -= 1
    return Interval(lo if lo > floor else floor, hi)


def sinhc(x: float) -> float:  # libm's sinh(x)/x, and 1 at x = 0
    return 1.0 if x == 0.0 else math.sinh(x) / x


# Enclosures of constants used throughout the bound formulas.
IPI = Interval(_next(math.pi, _NEG_INF), _next(math.pi, _INF))
IW = Interval.point(2.0).acosh()                      # arccosh 2
IWP = Interval.point(5.0).log() * 0.5                 # arctanh(2/3) = log(5)/2
