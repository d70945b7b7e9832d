import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encloses, mp
from schottky_gauge.errors import DomainError
from schottky_gauge.interval import (
    IPI,
    IW,
    IWP,
    IndeterminateCell,
    Interval,
)

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


def make(a, b):
    return Interval(min(a, b), max(a, b))


def test_point_and_ratio_enclose():
    assert encloses(Interval.point(1.5), 1.5)
    assert encloses(Interval.ratio(2.0, 3.0), mp.mpf(2) / 3)
    # a point interval has one constructor: the bare one needs both ends
    with pytest.raises(TypeError):
        Interval(1.5)


def test_rejects_inverted_and_nonfinite():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(IndeterminateCell):
        Interval(math.inf, math.inf)
    with pytest.raises(IndeterminateCell):
        Interval(math.nan, 1.0)
    with pytest.raises(IndeterminateCell):
        Interval(1.0, math.nan)


@pytest.mark.parametrize("x", [
    Interval.point(1e3), Interval.point(-1e3), Interval(-1e3, 1.0),
    Interval(-1.0, 1e3),
], ids=["+1e3", "-1e3", "straddle-low", "straddle-high"])
@pytest.mark.parametrize("op", ["sinh", "cosh", "sinhc"])
def test_libm_overflow_is_indeterminate(op, x):
    with pytest.raises(IndeterminateCell, match=f"^{op} overflow on Interval\\("):
        getattr(x, op)()


def test_arithmetic_overflow_is_indeterminate():
    # no finite enclosure is "no enclosure": a DomainError, never a
    # ValueError or an infinite endpoint
    assert issubclass(IndeterminateCell, DomainError)
    with pytest.raises(IndeterminateCell):
        Interval.point(1e200) * Interval.point(1e200)
    with pytest.raises(IndeterminateCell):
        Interval.point(1e308) + 1e308
    # the ends' sum overflows, their halves' sum does not
    assert Interval(1e308, 1.5e308).mid == 1.25e308


def test_constants():
    assert encloses(IPI, mp.pi)
    assert encloses(IW, mp.acosh(2))
    assert encloses(IWP, mp.atanh(mp.mpf(2) / 3))


@given(finite, finite, finite, finite)
def test_arithmetic_containment(a, b, c, d):
    x, y = make(a, b), make(c, d)
    px, py = x.mid, y.mid
    assert encloses(x + y, px + py)
    assert encloses(x - y, px - py)
    assert encloses(x * y, px * py)
    assert encloses(x.sq(), px * px)


def test_sq_straddling_zero_rounds_up():
    # 0.7 * 0.7 rounds below the exact square of the float 0.7, so the
    # straddling case needs its outward step
    assert Fraction(0.7 * 0.7) < Fraction(0.7) ** 2
    assert Fraction(Interval(-0.7, 0.5).sq().hi) >= Fraction(0.7) ** 2


def test_log_of_cell_touching_zero_is_indeterminate():
    # libm's log(0.0) raises ValueError: the domain check must catch 0
    with pytest.raises(IndeterminateCell):
        Interval(0.0, 1.0).log()


def test_division_by_zero_interval_is_indeterminate():
    with pytest.raises(IndeterminateCell):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)


def test_acosh_strict_vs_clamped():
    with pytest.raises(DomainError):
        Interval(0.5, 0.9).acosh()
    with pytest.raises(DomainError):
        Interval(0.5, 2.0).acosh()
    # clamped: straddling cells fall back to the one-sided bound >= 0
    clamped = Interval(0.5, 2.0).acosh_clamped()
    assert clamped.lo == 0.0
    assert encloses(clamped, math.acosh(2.0))
    with pytest.raises(DomainError):
        Interval(0.5, 0.9).acosh_clamped()


def test_acosh_lower_endpoint_never_negative():
    assert Interval(1.0, 1.0).acosh().lo >= 0.0


def test_cosh_straddling_zero_has_min_one():
    x = Interval(-1.0, 2.0).cosh()
    assert x.lo <= 1.0 <= x.hi
    assert encloses(x, math.cosh(2.0))


def test_sinhc_even_and_at_zero():
    assert encloses(Interval.point(0.0).sinhc(), 1.0)
    straddle = Interval(-0.5, 0.25).sinhc()
    assert encloses(straddle, math.sinh(0.5) / 0.5)
    assert straddle.lo <= 1.0


def test_asin_domain():
    with pytest.raises(IndeterminateCell):
        Interval(0.5, 1.5).asin()
    assert encloses(Interval(0.0, 1.0).asin(), math.asin(0.5))


def test_min_max_with():
    x = Interval(1.0, 3.0)
    y = Interval(2.0, 2.5)
    m = x.min_with(y)
    assert m.lo == 1.0 and m.hi == 2.5
    m = x.max_with(y)
    assert m.lo == 2.0 and m.hi == 3.0


# Any finite double, with the edge cases drawn often: signed zeros,
# subnormals, the smallest normal and magnitudes whose products overflow.
edge = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -1e-310, 1.0, -1.0, 1e154, -1e154, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _four_point(op, x, y):
    """Reference enclosure of x op y for (lo, hi) pairs: the endpoint sum
    or difference, or the min/max of the four endpoint products or
    quotients, each widened by one nextafter; None for a divisor
    containing zero or a non-finite endpoint (no enclosure)."""
    (a, b), (c, d) = x, y
    if op == "+":
        lo, hi = a + c, b + d
    elif op == "-":
        lo, hi = a - d, b - c
    elif op == "*":
        p = (a * c, a * d, b * c, b * d)
        lo, hi = min(p), max(p)
    else:
        if c <= 0.0 <= d:
            return None
        p = (a / c, a / d, b / c, b / d)
        lo, hi = min(p), max(p)
    lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    return lo.hex(), hi.hex()


_OPS = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
        "*": lambda u, v: u * v, "/": lambda u, v: u / v}


@pytest.mark.parametrize("op", list(_OPS))
@settings(max_examples=400)
@given(a=edge, b=edge, c=edge, d=edge, s=edge)
def test_sign_cases_match_four_point_formula_bitwise(op, a, b, c, d, s):
    # each operator's fast sign cases must give exactly the endpoints of
    # the four-point formula, for interval, float and reflected operands
    x, y = make(a, b), make(c, d)
    cases = (
        (x, y, (x.lo, x.hi), (y.lo, y.hi)),
        (x, s, (x.lo, x.hi), (s, s)),
        (s, y, (s, s), (y.lo, y.hi)),
    )
    for u, v, ue, ve in cases:
        want = _four_point(op, ue, ve)
        if want is None:
            with pytest.raises(IndeterminateCell):
                _OPS[op](u, v)
        else:
            got = _OPS[op](u, v)
            assert (got.lo.hex(), got.hi.hex()) == want, (u, op, v)
